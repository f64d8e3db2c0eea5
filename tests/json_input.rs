//! The JSON trust boundary: hostile nesting comes back as a typed error
//! instead of overflowing the stack, and every committed result file
//! still parses.

use multiprec::core::{CascadePolicy, Dmu};

#[test]
fn deeply_nested_json_is_an_error_not_an_abort() {
    let deep = "[".repeat(200_000);
    let err = serde_json::from_str::<Vec<f32>>(&deep).unwrap_err();
    assert!(err.to_string().contains("recursion limit"), "{err}");
    // Validated configs and models parse through the same parser.
    let policy = format!("{{\"stages\":{deep}");
    assert!(serde_json::from_str::<CascadePolicy>(&policy).is_err());
    let dmu = format!("{{\"weights\":{deep}");
    assert!(serde_json::from_str::<Dmu>(&dmu).is_err());
}

#[test]
fn every_committed_result_parses() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
    let mut parsed = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path).unwrap();
            if let Err(e) = serde_json::from_str::<serde_json::Value>(&text) {
                panic!("{}: {e}", path.display());
            }
            parsed += 1;
        }
    }
    assert!(parsed > 0, "no result files under {dir}");
}
