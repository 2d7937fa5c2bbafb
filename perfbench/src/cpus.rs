//! Spreading a single-threaded pass over every CPU the process may use.
//!
//! On a shared virtual machine a vCPU's speed depends on what else runs on
//! its physical core, and that changes over minutes. A lone thread tends
//! to stay on one vCPU for a whole run, so which vCPU it landed on decided
//! the run: pinned runs of the same batch inputs on a 2-vCPU VM differed
//! by 20–25% between the two vCPUs, and which one was slower flipped
//! within minutes. Moving the thread to the next allowed CPU before every
//! operation gives each run the average of all of them instead.

use std::os::raw::{c_int, c_ulong};

/// Mask words: 1024 CPUs, the size of glibc's `cpu_set_t`.
const WORDS: usize = 16;
const BITS: usize = c_ulong::BITS as usize;

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const c_ulong) -> c_int;
}

fn set(mask: &[c_ulong; WORDS]) -> bool {
    // SAFETY: `mask` is a live, initialised buffer of the size passed;
    // pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

/// Round-robin placement of the calling thread over the CPUs it was
/// allowed when the rotation began. The thread's original affinity is
/// restored on drop.
pub struct Rotation {
    original: [c_ulong; WORDS],
    allowed: Vec<usize>,
    next: usize,
}

impl Rotation {
    /// A rotation over the calling thread's allowed CPUs. Where the
    /// affinity cannot be read, [`Rotation::step`] does nothing.
    pub fn new() -> Rotation {
        let mut original = [0; WORDS];
        // SAFETY: as in `set`, for a writable buffer.
        let ok = unsafe {
            sched_getaffinity(0, std::mem::size_of_val(&original), original.as_mut_ptr()) == 0
        };
        let allowed = if ok {
            (0..WORDS * BITS)
                .filter(|&cpu| original[cpu / BITS] >> (cpu % BITS) & 1 == 1)
                .collect()
        } else {
            Vec::new()
        };
        Rotation {
            original,
            allowed,
            next: 0,
        }
    }

    /// The CPUs the rotation cycles through (empty if it cannot move the
    /// thread).
    pub fn cpus(&self) -> &[usize] {
        &self.allowed
    }

    /// Move the calling thread to the next CPU in turn.
    pub fn step(&mut self) {
        if self.allowed.len() < 2 {
            return;
        }
        let cpu = self.allowed[self.next % self.allowed.len()];
        self.next += 1;
        let mut mask = [0; WORDS];
        mask[cpu / BITS] |= 1 << (cpu % BITS);
        if !set(&mask) {
            // Not permitted here: stay where the scheduler puts us.
            self.allowed.clear();
        }
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        if self.next > 0 {
            set(&self.original);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    extern "C" {
        fn sched_getcpu() -> c_int;
    }

    #[test]
    fn rotation_visits_every_allowed_cpu_and_restores_the_mask() {
        std::thread::spawn(|| {
            let mut r = Rotation::new();
            let cpus = r.cpus().to_vec();
            if cpus.len() > 1 {
                for &cpu in cpus.iter().chain(&cpus) {
                    r.step();
                    // SAFETY: no arguments; returns the CPU it runs on.
                    assert_eq!(unsafe { sched_getcpu() }, cpu as c_int);
                }
            }
            drop(r);
            assert_eq!(Rotation::new().cpus(), cpus);
            // A rotation begun on a thread pinned to one CPU stays there.
            let mut outer = Rotation::new();
            outer.step();
            let mut inner = Rotation::new();
            assert!(cpus.len() < 2 || inner.cpus().len() == 1);
            inner.step();
        })
        .join()
        .unwrap();
    }
}
