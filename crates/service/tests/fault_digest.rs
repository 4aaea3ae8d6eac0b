//! Pins every fault-aware answer bit the service gives: the `mean`, `lo`,
//! `hi` and `point` of `query_uncached` for 64 replay requests at three
//! fault intensities and seven iteration counts, folded into one digest.
//! The iteration counts cross the checkpoint cadence's edges: one
//! iteration, cadences of one (4, 9) and of two (10), the cadence where
//! every segment is whole (50), a long run (400) and the service's cap.
//!
//! The healthy answers are pinned elsewhere (`world_digest`,
//! `golden_predictions.txt`); this pins what the fault model adds.

use prodpred_service::{request_for, PredictRequest, ServiceConfig, ServiceCore};

/// Replay requests asked at every intensity and iteration count.
const REQUESTS: u64 = 64;
const INTENSITIES: [f64; 3] = [0.25, 0.5, 1.0];
const ITERATIONS: [usize; 7] = [1, 4, 9, 10, 50, 400, 10_000];

/// FNV-1a, folded over the log as it is written.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, line: &str) {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[test]
fn fault_aware_answers_are_pinned() {
    let core = ServiceCore::new(ServiceConfig::default());
    let mut digest = Digest::new();
    let mut answered = 0;
    for intensity in INTENSITIES {
        for iterations in ITERATIONS {
            for i in 0..REQUESTS {
                let mut request = PredictRequest {
                    fault_intensity: Some(intensity),
                    ..request_for(7, i)
                };
                request.config.iterations = iterations;
                let line = match core.query_uncached(&request) {
                    Ok(r) => {
                        answered += 1;
                        format!(
                            "{intensity} {iterations} {i} {:016x} {:016x} {:016x} {:016x}",
                            r.mean.to_bits(),
                            r.lo.to_bits(),
                            r.hi.to_bits(),
                            r.point.to_bits()
                        )
                    }
                    Err(e) => format!("{intensity} {iterations} {i} {e:?}"),
                };
                digest.write(&line);
            }
        }
    }
    assert_eq!(
        answered,
        REQUESTS as usize * INTENSITIES.len() * ITERATIONS.len()
    );
    assert_eq!(format!("{:016x}", digest.0), "cb012e57365ee33f");
}
