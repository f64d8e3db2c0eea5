//! Cross-crate check: the folded XNOR-popcount hardware path agrees with
//! the float/STE training view of the binarised network on real
//! synthetic data.

use multiprec::bnn::hardware::INPUT_QUANT_SCALE;
use multiprec::bnn::{BnnClassifier, FinnTopology, HardwareBnn};
use multiprec::dataset::SynthSpec;
use multiprec::nn::train::{Adam, Trainer};
use multiprec::nn::Network;
use multiprec::tensor::init::TensorRng;

fn trained_bnn(seed: u64) -> (BnnClassifier, multiprec::dataset::Dataset) {
    let mut spec = SynthSpec::tiny();
    spec.seed = seed;
    let mut gen = spec.build().expect("spec valid");
    let train = gen.generate(160).expect("generation");
    let test = gen.generate(80).expect("generation");
    let mut rng = TensorRng::seed_from(seed);
    let mut bnn =
        BnnClassifier::new(FinnTopology::scaled(8, 8, 8), &mut rng).expect("classifier builds");
    let mut trainer = Trainer::new(Adam::new(0.003), 20);
    let mut trng = TensorRng::seed_from(seed + 1);
    for _ in 0..3 {
        trainer
            .train_epoch(&mut bnn, train.images(), train.labels(), &mut trng)
            .expect("epoch");
    }
    (bnn, test)
}

#[test]
fn hardware_predictions_match_float_view_on_grid_inputs() {
    let (mut bnn, test) = trained_bnn(21);
    let hw = HardwareBnn::from_classifier(&bnn).expect("export");
    // Quantise inputs onto the first engine's fixed-point grid so the
    // two paths are bit-equivalent.
    let quantised = test
        .images()
        .map(|x| HardwareBnn::quantize_pixel(x) as f32 / INPUT_QUANT_SCALE);
    let float_scores = bnn.infer(&quantised).expect("float inference");
    let float_preds = Network::argmax_rows(&float_scores).expect("argmax");
    let mut agree = 0;
    #[allow(clippy::needless_range_loop)] // i selects both image and prediction
    for i in 0..test.len() {
        let img = quantised.batch_item(i).expect("image");
        if hw.classify(&img).expect("hw classify") == float_preds[i] {
            agree += 1;
        }
    }
    assert!(
        agree >= test.len() - 1,
        "hardware disagrees with float view on {}/{} images",
        test.len() - agree,
        test.len()
    );
}

#[test]
fn hardware_scores_are_valid_xnor_accumulations() {
    let (bnn, test) = trained_bnn(22);
    let hw = HardwareBnn::from_classifier(&bnn).expect("export");
    let fan_in = *bnn
        .topology()
        .fc_sizes()
        .iter()
        .rev()
        .nth(1)
        .expect("hidden FC") as i64;
    for i in 0..10 {
        let img = test.images().batch_item(i).expect("image");
        let scores = hw.infer_image(&img).expect("hw inference");
        for &s in &scores {
            assert!(s.abs() <= fan_in, "score {s} exceeds fan-in {fan_in}");
            assert_eq!((s - fan_in).rem_euclid(2), 0, "score {s} parity");
        }
    }
}

#[test]
fn export_is_deterministic() {
    let (bnn, _) = trained_bnn(23);
    let a = HardwareBnn::from_classifier(&bnn).expect("export");
    let b = HardwareBnn::from_classifier(&bnn).expect("export");
    // Same weights + thresholds ⇒ identical serialised form.
    let ja = serde_json::to_string(&a).expect("serialises");
    let jb = serde_json::to_string(&b).expect("serialises");
    assert_eq!(ja, jb);
}

#[test]
fn hardware_round_trips_through_serde() {
    let (bnn, test) = trained_bnn(24);
    let hw = HardwareBnn::from_classifier(&bnn).expect("export");
    let json = serde_json::to_string(&hw).expect("serialises");
    let back: HardwareBnn = serde_json::from_str(&json).expect("deserialises");
    let img = test.images().batch_item(0).expect("image");
    assert_eq!(
        hw.infer_image(&img).expect("original"),
        back.infer_image(&img).expect("round-tripped")
    );
}

/// The XNOR-popcount kernels rely on `count_ones` compiling to the
/// `popcnt` instruction. On x86-64 Linux that takes the repository's
/// `.cargo/config.toml` build baseline (`target-cpu=x86-64-v2`); a build
/// that loses it would silently fall back to a software popcount.
#[test]
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn x86_64_builds_use_hardware_popcount() {
    let built_with_popcnt = cfg!(target_feature = "popcnt");
    assert!(
        built_with_popcnt,
        "built without POPCNT: is .cargo/config.toml's x86-64-v2 baseline in effect?"
    );
}
