//! Host-speed calibration of the timed metrics.
//!
//! The baseline host is a shared virtual machine. The same code runs up to
//! a third slower there from one second to the next, and for minutes at a
//! time (`results/README.md`), so raw wall times of identical runs spread
//! wider than any useful regression bound. Every timed unit of work (a
//! set-up, a `pipeline::run`, a capture replay) is therefore followed by a
//! reading of a fixed calibration kernel, and its wall time is scaled to a
//! host on which that kernel takes the kernel's reference time:
//!
//! `scaled = wall × reference_ms / kernel_ms`,
//!
//! where `kernel_ms` is the median of the readings taken just before and
//! just after the unit. A change to obscor moves the scaled time exactly as
//! it moves the wall time; a change in host speed slows the kernel and the
//! work alike and cancels out.
//!
//! There are two kernels, because the host's slow phases do not slow every
//! kind of work alike: [`Kernel::Sort`] (sorting, hashing, floating point)
//! tracked the pipeline runs best and also scales the set-ups, which build
//! scenarios; [`Kernel::Sbox`] (table lookups and byte shuffles in
//! registers) tracked the ingest service's multi-threaded replays best
//! (`results/README.md`). Both use only `std`
//! and none of obscor's code, so no change to the program can move them.

use obscor_obs::time_fn;
use obscor_stats::summary::median;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Kernel runs per reading point.
const RUNS: usize = 3;

/// Keys [`Kernel::Sort`] sorts.
const KEYS: usize = 1 << 18;

/// Rounds of [`Kernel::Sbox`].
const ROUNDS: u32 = 400_000;

/// A calibration kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Sort `KEYS` pseudo-random integers, count the top bits of half of
    /// them in a hash map, and sum logarithms: the sort, hash and float
    /// work the pipeline's stages are made of.
    Sort,
    /// `ROUNDS` rounds of byte-wise S-box substitution and rotation over a
    /// 16-byte state, the shape of a cipher's inner loop: no memory traffic
    /// beyond one 256-byte table.
    Sbox,
}

impl Kernel {
    /// Kernel time, in ms, of the reference host every timed metric is
    /// scaled to: about the baseline host's median while the runs in
    /// `results/` were made.
    pub fn reference_ms(self) -> f64 {
        match self {
            Kernel::Sort => 10.0,
            Kernel::Sbox => 5.0,
        }
    }
}

type FixedHashMap = HashMap<u32, u32, BuildHasherDefault<DefaultHasher>>;

/// The kernels' buffers, allocated once so that no run pays page faults
/// (their cost on the baseline host follows its memory load, not its
/// speed).
#[derive(Clone, Debug)]
struct Buffers {
    keys: Vec<u64>,
    counts: FixedHashMap,
    sbox: [u8; 256],
}

/// The next value of a xorshift64 sequence.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Default for Buffers {
    fn default() -> Buffers {
        // A fixed pseudo-random permutation of the bytes.
        let mut sbox: [u8; 256] = std::array::from_fn(|i| i as u8);
        let mut x = 7u64;
        for i in (1..256).rev() {
            sbox.swap(i, (xorshift(&mut x) % (i as u64 + 1)) as usize);
        }
        Buffers {
            keys: Vec::new(),
            counts: FixedHashMap::default(),
            sbox,
        }
    }
}

/// One run of `kernel`. The inputs and the hasher are fixed, so every run
/// does the same work.
fn run(kernel: Kernel, b: &mut Buffers) -> u64 {
    match kernel {
        Kernel::Sort => {
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
            b.keys.clear();
            b.keys.extend((0..KEYS).map(|_| xorshift(&mut x)));
            b.keys.sort_unstable();
            b.counts.clear();
            for &k in b.keys.iter().step_by(2) {
                *b.counts.entry((k >> 48) as u32).or_insert(0) += 1;
            }
            let logs: f64 = b
                .keys
                .iter()
                .step_by(4)
                .map(|&k| ((k >> 11) as f64 + 1.0).ln())
                .sum();
            b.keys[KEYS / 2] ^ b.counts.len() as u64 ^ logs.to_bits()
        }
        Kernel::Sbox => {
            let mut st = [0u8; 16];
            for round in 0..ROUNDS {
                for (i, s) in st.iter_mut().enumerate() {
                    *s = b.sbox[usize::from(*s ^ (round as u8).wrapping_add(i as u8))];
                }
                st = std::hint::black_box(st);
                let first = st[0];
                for i in 0..15 {
                    st[i] ^= st[i + 1].rotate_left(1);
                }
                st[15] ^= first;
            }
            u64::from_le_bytes(std::array::from_fn(|i| st[i]))
        }
    }
}

/// The kernel readings of one run, taken between its timed units.
#[derive(Clone, Debug)]
pub struct Calibration {
    kernel: Kernel,
    buffers: Buffers,
    /// Readings of the latest reading point, ms.
    last: Vec<f64>,
    /// Every reading so far, ms.
    all: Vec<f64>,
}

impl Calibration {
    /// Take the first reading point of `kernel`, before the first timed
    /// unit.
    pub fn start(kernel: Kernel) -> Calibration {
        let mut c = Calibration {
            kernel,
            buffers: Buffers::default(),
            last: Vec::new(),
            all: Vec::new(),
        };
        // Warm-up: grow the buffers before the first timed run.
        std::hint::black_box(run(kernel, &mut c.buffers));
        c.last = c.readings();
        c.all.clone_from(&c.last);
        c
    }

    /// `RUNS` timed kernel runs, ms.
    fn readings(&mut self) -> Vec<f64> {
        (0..RUNS)
            .map(|_| {
                let (r, ns) = time_fn(|| run(self.kernel, &mut self.buffers));
                std::hint::black_box(r);
                ns as f64 / 1e6
            })
            .collect()
    }

    /// Take a reading point after a timed unit, and return the factor that
    /// scales that unit's wall time to the reference host: the reference
    /// time over the median of this point's and the previous point's
    /// readings.
    pub fn factor(&mut self) -> f64 {
        let now = self.readings();
        let mut around = std::mem::replace(&mut self.last, now.clone());
        around.extend_from_slice(&now);
        self.all.extend(now);
        self.kernel.reference_ms() / median(&around).expect("RUNS is positive")
    }

    /// Median of every reading so far, ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.all).expect("RUNS is positive")
    }

    /// Number of readings so far.
    pub fn samples(&self) -> usize {
        self.all.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_kernel_does_the_same_work_every_run() {
        for kernel in [Kernel::Sort, Kernel::Sbox] {
            let mut b = Buffers::default();
            let first = run(kernel, &mut b);
            assert_eq!(run(kernel, &mut b), first);
            assert_eq!(run(kernel, &mut Buffers::default()), first);
        }
    }

    #[test]
    fn the_sbox_is_a_permutation() {
        let mut seen = [false; 256];
        for &v in &Buffers::default().sbox {
            seen[usize::from(v)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn factors_scale_to_the_reference() {
        for kernel in [Kernel::Sort, Kernel::Sbox] {
            let mut c = Calibration::start(kernel);
            let f = c.factor();
            assert!(f.is_finite() && f > 0.0);
            assert_eq!(c.samples(), 2 * RUNS);
            // The factor is the reference over a kernel time the run measured.
            let kernel_ms = kernel.reference_ms() / f;
            assert!(c.all.iter().any(|&r| r <= kernel_ms) && c.all.iter().any(|&r| r >= kernel_ms));
        }
    }
}
