//! The four benchmark workloads. Each is a closed loop with one client
//! thread: the next `execute` call starts when the previous one returns.

use mp_core::Concurrency;
use mp_host::ModelId;
use mp_tensor::init::TensorRng;

use crate::system::mix;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Modeled executor, Model A host, 25% flagged, one pool-sized batch per
    /// call. BNN-bound.
    BatchAR25,
    /// Threaded executor, Model A host, 57% flagged. Both sides busy at once.
    OverlapAR57,
    /// Threaded executor, Model B host, 25% flagged. Host-bound.
    OverlapBR25,
    /// Modeled executor, Model A host, 25% flagged, one 8-image call per
    /// request, gathered with `Dataset::select`. Fixed per-call costs.
    SmallBatchAR25,
}

/// Images per `execute` call on [`Workload::SmallBatchAR25`]: one BNN
/// `IMG_BLOCK`.
pub const SMALL_BATCH: usize = 8;

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Host network re-inferring the flagged images.
    pub host: ModelId,
    /// Executor behind `execute`.
    pub concurrency: Concurrency,
    /// Share of images the calibrated DMU gate flags for the host.
    pub flag_frac: f64,
    /// Images per call; `None` means the whole pool in one call.
    pub call_images: Option<usize>,
}

impl WorkloadSpec {
    /// The percentile reported as `latency_p90_ms`. Small calls run
    /// hundreds of calls a run, enough for a real p90. Whole-pool calls
    /// last most of a second, and a run holds too few of them for a tail
    /// at any plausible speed; there it is the median, so that the
    /// statistic never depends on how many calls fit in the run.
    pub fn latency_tail_pct(&self) -> f64 {
        if self.call_images.is_some() {
            90.0
        } else {
            50.0
        }
    }
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::BatchAR25,
        Workload::OverlapAR57,
        Workload::OverlapBR25,
        Workload::SmallBatchAR25,
    ];

    /// The name used on the command line and in records.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchAR25 => "batch_a_r25",
            Workload::OverlapAR57 => "overlap_a_r57",
            Workload::OverlapBR25 => "overlap_b_r25",
            Workload::SmallBatchAR25 => "small_batch_a_r25",
        }
    }

    /// Looks a workload up by [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's configuration.
    pub fn spec(self) -> WorkloadSpec {
        let (host, concurrency, flag_frac, call_images) = match self {
            Workload::BatchAR25 => (ModelId::A, Concurrency::Modeled, 0.25, None),
            Workload::OverlapAR57 => (ModelId::A, Concurrency::Threaded, 0.57, None),
            Workload::OverlapBR25 => (ModelId::B, Concurrency::Threaded, 0.25, None),
            Workload::SmallBatchAR25 => (ModelId::A, Concurrency::Modeled, 0.25, Some(SMALL_BATCH)),
        };
        WorkloadSpec {
            host,
            concurrency,
            flag_frac,
            call_images,
        }
    }
}

/// Relative flagged load of consecutive small calls. The flagged images are
/// dealt over the calls in these proportions (at a 25% share of 8-image
/// calls: 0 to 4 flagged, 2 on average), so whatever the seed, the latency
/// tail comes from calls with twice the mean host work, not from how a
/// seed happens to cluster flagged images.
const CALL_MIX: [usize; 8] = [0, 1, 1, 2, 2, 3, 3, 4];

/// Splits the pool into calls of `size` images whose flagged counts follow
/// [`CALL_MIX`]. Every image lands in exactly one call; which flagged and
/// which kept image goes where is drawn from `seed`.
pub fn small_calls(flagged: &[bool], size: usize, seed: u64) -> Vec<Vec<usize>> {
    let size = size.max(1);
    let mut rng = TensorRng::seed_from(mix(seed, 4));
    let mut hot: Vec<usize> = (0..flagged.len()).filter(|&i| flagged[i]).collect();
    let mut cold: Vec<usize> = (0..flagged.len()).filter(|&i| !flagged[i]).collect();
    rng.shuffle(&mut hot);
    rng.shuffle(&mut cold);
    let calls = flagged.len().div_ceil(size);
    let capacity = |j: usize| size.min(flagged.len() - j * size);
    let weights: Vec<usize> = (0..calls).map(|j| CALL_MIX[j % CALL_MIX.len()]).collect();
    let total: usize = weights.iter().sum::<usize>().max(1);
    // Cumulative rounding: quotas sum to exactly `hot.len()`.
    let mut quota = Vec::with_capacity(calls);
    let (mut cum_w, mut dealt) = (0, 0);
    for &w in &weights {
        cum_w += w;
        let upto = (hot.len() * cum_w + total / 2) / total;
        quota.push(upto - dealt);
        dealt = upto;
    }
    // A quota above a call's capacity spills into the calls with room.
    let mut spill = 0;
    for (j, q) in quota.iter_mut().enumerate() {
        spill += q.saturating_sub(capacity(j));
        *q = (*q).min(capacity(j));
    }
    for (j, q) in quota.iter_mut().enumerate() {
        let room = (capacity(j) - *q).min(spill);
        *q += room;
        spill -= room;
    }
    let (mut hot, mut cold) = (hot.into_iter(), cold.into_iter());
    (0..calls)
        .map(|j| {
            let mut call: Vec<usize> = hot.by_ref().take(quota[j]).collect();
            call.extend(cold.by_ref().take(capacity(j) - quota[j]));
            call
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("batch"), None);
    }
}
