//! A fixed reference kernel that times the host rather than the program.
//!
//! On a shared host the speed of the same code drifts by 15–25% over
//! minutes as neighbours load the machine (see README.md). The end-to-end
//! run times this kernel after every op and scales op and set-up times by
//! how much slower the kernel ran than [`REFERENCE_MS`]. The kernel uses no
//! repository code and allocates nothing after construction, so no change
//! to dagsched can move its time.

use std::hint::black_box;
use std::time::Instant;

/// Sort keys: 256 KiB, so the kernel fits in a second-level cache and,
/// once warmed, does not depend on what the op before it left there.
const KEYS: usize = 1 << 15;

/// The kernel's fast-tenth time in ms on the host the README's numbers
/// come from (2 vCPUs of an Intel Xeon at 2.0 GHz) in a quiet spell. Op
/// times are reported at this host speed.
pub const REFERENCE_MS: f64 = 0.6;

/// The kernel's buffer, built once.
pub struct Reference {
    keys: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Reference {
        Reference::new()
    }
}

impl Reference {
    /// Allocate the keys.
    pub fn new() -> Reference {
        Reference {
            keys: vec![0; KEYS],
        }
    }

    /// Run the kernel twice, the first pass to warm the caches, and return
    /// the second pass's wall time in ms.
    pub fn time_ms(&mut self) -> f64 {
        self.pass();
        let t = Instant::now();
        self.pass();
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Refill the keys with the same pseudo-random sequence and sort them.
    fn pass(&mut self) {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for k in &mut self.keys {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *k = x;
        }
        self.keys.sort_unstable();
        black_box(&self.keys);
    }
}
