//! The host-speed calibration kernel and the normaliser built on it.
//!
//! The kernel is fixed work written here, in the benchmark's own source, and
//! calls no BlueFi code, so no change to the program can make it faster or
//! slower. It mixes the three kinds of work the synthesis pipeline does:
//!
//! * integer add-compare-select over a 64-state trellis (the Viterbi shape);
//! * a radix-2 complex FFT over 64 points (the OFDM quantizer shape);
//! * a strided read-modify-write pass over 512 KiB (the memory traffic of
//!   a long packet's sample buffers).
//!
//! Each workload runs the kernel between its timed operations (never while
//! the daemon has work in flight) and divides every raw time by
//! `calib_measured / CALIB_REF_US`, so a slower or busier host reads the
//! same as the reference host.

use std::hint::black_box;
use std::time::Instant;

/// Median kernel time on the reference host (x86-64, 2 vCPUs), in µs.
/// Normalised times are expressed in that host's units.
pub const CALIB_REF_US: f64 = 520.0;

const ACS_STEPS: usize = 2_400;
const FFT_ROUNDS: usize = 48;
const MEM_WORDS: usize = 1 << 16; // 512 KiB of u64

/// The calibration kernel with its preallocated state.
pub struct Kernel {
    metrics: [u32; 64],
    next: [u32; 64],
    re: [f64; 64],
    im: [f64; 64],
    tw: [(f64, f64); 32],
    mem: Vec<u64>,
}

impl Kernel {
    /// Builds the kernel's buffers and twiddle table.
    pub fn new() -> Kernel {
        let mut tw = [(0.0, 0.0); 32];
        for (k, t) in tw.iter_mut().enumerate() {
            let a = -2.0 * std::f64::consts::PI * k as f64 / 64.0;
            *t = (a.cos(), a.sin());
        }
        Kernel {
            metrics: [0; 64],
            next: [0; 64],
            re: [0.0; 64],
            im: [0.0; 64],
            tw,
            mem: (0..MEM_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
        }
    }

    /// Runs the fixed work once and returns its wall time in µs.
    pub fn run_us(&mut self) -> f64 {
        let t0 = Instant::now();
        let sum = self.acs() ^ self.fft().to_bits() ^ self.mem_pass();
        black_box(sum);
        t0.elapsed().as_secs_f64() * 1e6
    }

    fn acs(&mut self) -> u64 {
        let mut x: u32 = black_box(0x1234_5678);
        let mut survivors = 0u64;
        self.metrics = [0; 64];
        for _ in 0..ACS_STEPS {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let (bm0, bm1) = (x & 0xFF, (x >> 8) & 0xFF);
            let mut min = u32::MAX;
            for i in 0..32 {
                let a = self.metrics[2 * i];
                let b = self.metrics[2 * i + 1];
                let (p0, q0) = (a + bm0, b + bm1);
                let (p1, q1) = (a + bm1, b + bm0);
                self.next[i] = p0.min(q0);
                self.next[i + 32] = p1.min(q1);
                survivors = survivors.rotate_left(1) ^ u64::from(p0 > q0) ^ u64::from(p1 > q1);
                min = min.min(self.next[i]).min(self.next[i + 32]);
            }
            for (m, n) in self.metrics.iter_mut().zip(&self.next) {
                *m = n - min;
            }
        }
        survivors ^ u64::from(self.metrics[0])
    }

    fn fft(&mut self) -> f64 {
        for i in 0..64 {
            self.re[i] = black_box((i as f64 * 0.37).sin());
            self.im[i] = (i as f64 * 0.11).cos();
        }
        for _ in 0..FFT_ROUNDS {
            // Bit-reversal permutation, then log2(64) butterfly passes.
            for i in 0..64usize {
                let j = i.reverse_bits() >> (usize::BITS - 6);
                if j > i {
                    self.re.swap(i, j);
                    self.im.swap(i, j);
                }
            }
            let mut half = 1;
            while half < 64 {
                let step = 32 / half;
                for start in (0..64).step_by(2 * half) {
                    for k in 0..half {
                        let (wr, wi) = self.tw[k * step];
                        let (a, b) = (start + k, start + k + half);
                        let tr = self.re[b] * wr - self.im[b] * wi;
                        let ti = self.re[b] * wi + self.im[b] * wr;
                        self.re[b] = self.re[a] - tr;
                        self.im[b] = self.im[a] - ti;
                        self.re[a] += tr;
                        self.im[a] += ti;
                    }
                }
                half *= 2;
            }
            // Keep magnitudes bounded round to round.
            for i in 0..64 {
                self.re[i] *= 0.125;
                self.im[i] *= 0.125;
            }
        }
        self.re
            .iter()
            .zip(&self.im)
            .map(|(r, i)| r * r + i * i)
            .sum()
    }

    fn mem_pass(&mut self) -> u64 {
        let mut acc = 0u64;
        let n = self.mem.len();
        // Two strided passes: a cache-line stride then a unit stride.
        for i in (0..n).step_by(8) {
            acc = acc.wrapping_add(self.mem[i]);
            self.mem[i] ^= acc >> 7;
        }
        for w in self.mem.iter_mut() {
            *w = w.rotate_left(3) ^ acc;
            acc = acc.wrapping_add(*w);
        }
        acc
    }
}

/// Collects kernel samples over a run and converts raw times into
/// reference-host units.
pub struct Normaliser {
    kernels: Vec<Kernel>,
    samples: Vec<f64>,
}

impl Normaliser {
    /// A single-threaded normaliser with a warmed kernel (the first run
    /// faults the buffer in).
    pub fn new() -> Normaliser {
        Normaliser::with_threads(1)
    }

    /// A normaliser that runs one kernel per thread on `threads` threads at
    /// once, for workloads that keep that many cores busy: a sample is the
    /// slowest thread's time.
    pub fn with_threads(threads: usize) -> Normaliser {
        let mut kernels: Vec<Kernel> = (0..threads.max(1)).map(|_| Kernel::new()).collect();
        for k in &mut kernels {
            k.run_us();
        }
        Normaliser {
            kernels,
            samples: Vec::with_capacity(4096),
        }
    }

    /// Runs the kernel `n` times and records each time.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let t = match self.kernels.as_mut_slice() {
                [one] => one.run_us(),
                many => {
                    let barrier = std::sync::Barrier::new(many.len());
                    std::thread::scope(|s| {
                        let handles: Vec<_> = many
                            .iter_mut()
                            .map(|k| {
                                let barrier = &barrier;
                                s.spawn(move || {
                                    barrier.wait();
                                    k.run_us()
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().expect("calibration thread panicked"))
                            .fold(0.0, f64::max)
                    })
                }
            };
            self.samples.push(t);
        }
    }

    /// Median kernel time of this run, µs.
    pub fn calib_us(&self) -> f64 {
        crate::stats::median(&self.samples)
    }

    /// The run's kernel spread: interquartile range over median.
    pub fn spread(&self) -> f64 {
        crate::stats::iqr_ratio(&self.samples)
    }

    /// Host slowdown against the reference: > 1 on a slower host.
    pub fn slowdown(&self) -> f64 {
        self.calib_us() / CALIB_REF_US
    }

    /// Host slowdown from the median of the last `k` kernel runs.
    pub fn recent_slowdown(&self, k: usize) -> f64 {
        let from = self.samples.len().saturating_sub(k);
        crate::stats::median(&self.samples[from..]) / CALIB_REF_US
    }

    /// Converts a raw duration into reference-host units.
    pub fn time(&self, raw: f64) -> f64 {
        raw / self.slowdown()
    }

    /// Converts a raw duration measured between the last two kernel runs
    /// into reference-host units, using the slowdown those two runs saw
    /// (the kernel runs between operations, so each operation is scaled by
    /// the host speed measured just before and just after it).
    pub fn local_time(&self, raw: f64) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return self.time(raw);
        }
        raw * 2.0 * CALIB_REF_US / (self.samples[n - 1] + self.samples[n - 2])
    }

    /// Number of kernel samples taken.
    pub fn count(&self) -> usize {
        self.samples.len()
    }
}
