//! The host-speed probe: a fixed job in the benchmark's own code, timed
//! between the segments of an untraced run, so that a segment's wall time
//! can be restated at one reference host speed.
//!
//! The host this benchmark was written on is a 2-core slice of a shared
//! machine. Identical work takes 1.0x to 1.7x as long from one second to
//! the next, and the slow state lasts minutes once the VM has been busy for
//! a while; no statistic of raw wall times (median, fastest quarter,
//! minimum) stayed within 25% over ten runs. The slow-downs are common to
//! everything the VM runs, so a fixed job timed right before and right
//! after a segment measures them, and `wall * REFERENCE_S / probe` cancels
//! them (measured: ten-run spread of the median step 6-20% raw, 3-6%
//! restated).
//!
//! The job is shaped like the workloads: one thread per rank, each round a
//! cache-resident multiply-add burst and a streaming pass over a 2 MiB
//! buffer, ranks meeting at a barrier after every round (a step waits for
//! its slower rank, so the probe must too). It calls nothing from the
//! program under test: a later change to the program cannot move it.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// Wall seconds of one probe on the quiet reference host. Timed values are
/// restated to a host on which the probe takes exactly this long.
pub const REFERENCE_S: f64 = 0.040;

/// Side of the square multiply-add tile (three of them fit in L1).
const TILE: usize = 96;
/// Floats in a lane's streaming buffer (2 MiB: past L1, inside L2/L3).
const STREAM: usize = 1 << 19;
/// Barrier-separated rounds of one probe.
const ROUNDS: usize = 20;
/// Tile products per round.
const TILE_REPS: usize = 12;
/// Streaming passes per round.
const STREAM_REPS: usize = 8;

/// One thread's buffers, allocated once so a probe never faults pages in.
struct Lane {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    stream: Vec<f32>,
}

impl Lane {
    fn new() -> Lane {
        Lane {
            a: (0..TILE * TILE).map(|i| (i % 7) as f32 * 0.125).collect(),
            b: (0..TILE * TILE).map(|i| (i % 5) as f32 * 0.25).collect(),
            c: vec![0.0; TILE * TILE],
            stream: vec![1.0; STREAM],
        }
    }

    fn round(&mut self) {
        for _ in 0..TILE_REPS {
            for i in 0..TILE {
                let out = &mut self.c[i * TILE..(i + 1) * TILE];
                for k in 0..TILE {
                    let x = self.a[i * TILE + k];
                    let row = &self.b[k * TILE..(k + 1) * TILE];
                    for (o, r) in out.iter_mut().zip(row) {
                        *o = *o * 0.5 + x * r;
                    }
                }
            }
            black_box(&mut self.c);
        }
        for _ in 0..STREAM_REPS {
            for x in &mut self.stream {
                *x = *x * 0.999 + 0.001;
            }
            black_box(&mut self.stream);
        }
    }
}

pub struct HostProbe {
    lanes: Vec<Lane>,
}

impl HostProbe {
    /// A probe that keeps `threads` threads busy, as many as the workload
    /// has ranks.
    pub fn new(threads: usize) -> HostProbe {
        HostProbe {
            lanes: (0..threads).map(|_| Lane::new()).collect(),
        }
    }

    /// Runs the fixed job once and returns its wall seconds.
    pub fn run(&mut self) -> f64 {
        let barrier = Barrier::new(self.lanes.len());
        let started = Instant::now();
        std::thread::scope(|s| {
            for lane in &mut self.lanes {
                let barrier = &barrier;
                s.spawn(move || {
                    for _ in 0..ROUNDS {
                        lane.round();
                        barrier.wait();
                    }
                });
            }
        });
        started.elapsed().as_secs_f64()
    }
}

/// `wall` seconds, measured between two probes that took `before` and
/// `after` seconds, restated at the reference host speed.
pub fn at_reference(wall: f64, before: f64, after: f64) -> f64 {
    wall * REFERENCE_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_twice_as_slow_halves_the_restated_time() {
        let quiet = at_reference(1.0, REFERENCE_S, REFERENCE_S);
        assert!((quiet - 1.0).abs() < 1e-12);
        let slow = at_reference(2.0, 2.0 * REFERENCE_S, 2.0 * REFERENCE_S);
        assert!((slow - 1.0).abs() < 1e-12);
        // the two neighbours are averaged
        let mixed = at_reference(1.5, REFERENCE_S, 2.0 * REFERENCE_S);
        assert!((mixed - 1.0).abs() < 1e-12);
    }

    #[test]
    fn the_probe_takes_measurable_time_and_stays_finite() {
        let mut probe = HostProbe::new(2);
        assert!(probe.run() > 1e-4);
        assert!(probe.run() > 1e-4);
        assert!(probe.lanes.iter().all(|l| l.c[17].is_finite()));
        assert!(probe.lanes.iter().all(|l| l.stream[3].is_finite()));
    }
}
