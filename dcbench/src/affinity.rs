//! CPU placement. On a small host the scheduler's choice of which threads
//! share a core changes the wire workloads' capacity from run to run, so
//! the benchmark fixes it: the load generator runs on the first CPU it may
//! use, `datacell-server` on the second. With fewer than two usable CPUs
//! nothing is pinned.

use std::os::unix::process::CommandExt;
use std::process::Command;

/// `cpu_set_t` as glibc lays it out: 1024 bits.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// CPUs this thread may run on.
fn allowed() -> Vec<usize> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| set.0[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread (and threads it spawns later) to `cpu`.
fn pin(cpu: usize) -> bool {
    let mut set = CpuSet([0; 16]);
    set.0[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a live buffer of exactly the size passed; pid 0
    // names the calling thread. The call only reads the mask.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// The `(generator, server)` CPUs, when the host has two to give.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    generator: usize,
    server: usize,
}

impl Placement {
    /// Pin the calling (main) thread to the generator CPU. Call before
    /// spawning any thread so the subscriber thread inherits it.
    pub fn apply() -> Option<Placement> {
        let cpus = allowed();
        let p = Placement {
            generator: *cpus.first()?,
            server: *cpus.get(1)?,
        };
        pin(p.generator).then_some(p)
    }

    /// Make `cmd`'s process start on the server CPU.
    pub fn server(self, cmd: &mut Command) {
        let cpu = self.server;
        // SAFETY: the closure runs in the forked child before exec and
        // makes one system call (async-signal-safe), touching no locks or
        // allocator state.
        unsafe {
            cmd.pre_exec(move || {
                pin(cpu);
                Ok(())
            });
        }
    }

    /// For the record line.
    pub fn describe(p: Option<Placement>) -> String {
        p.map_or("unpinned (fewer than 2 usable CPUs)".into(), |p| {
            format!(
                "generator on cpu {}, datacell-server on cpu {}",
                p.generator, p.server
            )
        })
    }
}
