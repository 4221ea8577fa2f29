// Seeds `shared-static-mut` violations: process-global atomics and locks
// outside the obs registry, enable flags included.

use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Mutex;

pub static HITS: AtomicU64 = AtomicU64::new(0);

pub static POOL: Mutex<Vec<u8>> = Mutex::new(Vec::new());

pub static METRICS_ENABLED: AtomicBool = AtomicBool::new(false);

static TABLE: [u8; 3] = [1, 2, 3];

// audit:allow(shared-static-mut) — fixture: the marker must silence this site
static OK: Mutex<u32> = Mutex::new(0);

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU32;

    pub static IN_TEST: AtomicU32 = AtomicU32::new(0);
}
