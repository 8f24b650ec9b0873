//! Host-speed normalisation.
//!
//! On a share of a busy machine a core's speed is not steady: the same
//! round of statements runs up to twice as slowly for seconds or
//! minutes at a time, with no CPU steal to show for it. Two runs of the
//! same code minutes apart then differ by more than any useful bound.
//!
//! So next to the timed work the harness times a fixed piece of work of
//! its own, the calibration: sorts of 16k keys held in L2, then a copy
//! of 8 MiB, a few milliseconds in all. Of the calibrations tried (the sort,
//! small allocations, a pointer chase through 16 MiB, a 32 MiB copy),
//! the sort tracked wide-join's planner-bound rounds best: over 10- to
//! 20-second windows of one long run the spread of round time ÷
//! calibration was 0.08-0.10 of its median where the raw round time's
//! was 0.36-0.45; the pointer chase barely followed. The copy tracked
//! olap-mix's external operators, which move whole collections, better
//! than the sort did, so the calibration holds both.
//!
//! The calibration never calls the engine, so a change to the engine
//! cannot speed it up or slow it down. Every host-time metric is
//! reported at the reference speed: `raw × factor`, where
//! `factor = REFERENCE_S / median(calibrations)` over the calibrations
//! of the same phase (set-up, loop or recovery). A faster or slower
//! engine moves the raw time and leaves the calibration alone, so it
//! moves the reported value by the same share.

use crate::stats::median;
use crate::Rng;
use std::cell::RefCell;
use std::time::Instant;

/// The calibration's median seconds at the reference speed: a calm period of
/// a 2-core Intel Xeon virtual machine (2 MiB L2 per core).
pub const REFERENCE_S: f64 = 0.0026;

/// Keys the calibration sorts (128 KiB, well inside L2).
const SORT_KEYS: usize = 16_384;
/// Sorts per calibration (about 2 ms in all).
const SORTS: usize = 6;
/// Words the calibration copies (8 MiB, beyond L2).
const COPY_WORDS: usize = 1 << 20;

/// The calibration's inputs, made once per thread so a calibration
/// allocates nothing.
struct Buffers {
    keys: Vec<u64>,
    work: Vec<u64>,
    from: Vec<u64>,
    to: Vec<u64>,
}

thread_local! {
    static BUFFERS: RefCell<Buffers> = RefCell::new({
        let mut rng = Rng::new(0x5EED, 0xCA1);
        let keys: Vec<u64> = (0..SORT_KEYS).map(|_| rng.next_u64()).collect();
        Buffers {
            work: keys.clone(),
            keys,
            from: (0..COPY_WORDS as u64).collect(),
            to: vec![0; COPY_WORDS],
        }
    });
}

/// Runs the calibration once and returns its seconds.
pub fn calibrate() -> f64 {
    BUFFERS.with(|b| {
        let b = &mut *b.borrow_mut();
        let t0 = Instant::now();
        for _ in 0..SORTS {
            b.work.copy_from_slice(&b.keys);
            b.work.sort_unstable();
        }
        b.to.copy_from_slice(&b.from);
        std::hint::black_box((&b.work, &b.to));
        t0.elapsed().as_secs_f64()
    })
}

/// The factor that takes host times measured next to `samples` to the
/// reference speed (1 without samples).
pub fn factor(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        1.0
    } else {
        REFERENCE_S / median(samples).max(f64::MIN_POSITIVE)
    }
}

/// Host-time samples of one phase with the calibrations taken next to
/// them.
#[derive(Clone, Debug, Default)]
pub struct Timed {
    /// The measured host seconds.
    pub secs: Vec<f64>,
    /// Calibration seconds, one taken before each measurement.
    pub speed: Vec<f64>,
}

impl Timed {
    /// Calibrates; call it right next to the measured work.
    pub fn calibrate(&mut self) {
        self.speed.push(calibrate());
    }

    /// The median at the reference speed.
    pub fn median(&self) -> f64 {
        median(&self.secs) * factor(&self.speed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_scales_by_the_median_calibration() {
        assert_eq!(factor(&[]), 1.0);
        let slow = [2.0 * REFERENCE_S, 2.0 * REFERENCE_S, 9.0];
        assert!((factor(&slow) - 0.5).abs() < 1e-12);
        let t = Timed {
            secs: vec![3.0, 1.0, 2.0],
            speed: slow.to_vec(),
        };
        assert!((t.median() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn the_calibration_takes_time() {
        assert!(calibrate() > 0.0);
    }
}
