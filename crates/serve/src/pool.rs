//! The slot-ordered worker pool with a typed error taxonomy.
//!
//! This is the scheduling primitive behind both `dpmc bench` and the
//! synthesis service: `count` jobs are pulled from a shared counter by
//! `jobs` worker threads, and worker *i* writes only result slot *i*, so
//! anything assembled from the returned vector in order is byte-identical
//! for any job count.
//!
//! Unlike the original string-erased pool, failures here are
//! [`WorkerError`]s carrying the flow-error *family* and *exit code*, so a
//! job that fails inside the pool reports the same taxonomy in a bench
//! error row or a serve response as it would as a `dpmc` process exit.
//! A panicking job is caught ([`std::panic::catch_unwind`]), classified as
//! the `panic` family, and keeps its payload message — previously a panic
//! collapsed to a fixed string and the taxonomy was lost.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The `family` and `exit_code` of a job that panicked (or whose worker
/// died): process exit 101 is what the Rust runtime reports for an
/// uncaught panic, so pool-level and process-level observations agree.
pub const PANIC_FAMILY: &str = "panic";

/// Exit code reported for the [`PANIC_FAMILY`].
pub const PANIC_EXIT_CODE: u8 = 101;

/// A classified job failure: which error family it belongs to, the exit
/// code a `dpmc` process would have reported for it, and the
/// human-readable message. The families and codes are the flow-error
/// taxonomy (`usage`=2, `io`=3, `parse`=4, `graph`=5, `analysis`=6,
/// `cluster`=7, `netlist`=8) plus [`PANIC_FAMILY`]=101 for caught panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerError {
    /// Machine-readable error family.
    pub family: String,
    /// The process exit code this family maps to.
    pub exit_code: u8,
    /// Human-readable description.
    pub message: String,
}

impl WorkerError {
    /// A classified failure.
    pub fn new(family: impl Into<String>, exit_code: u8, message: impl Into<String>) -> Self {
        WorkerError { family: family.into(), exit_code, message: message.into() }
    }

    /// The failure recorded for a caught panic, preserving the payload
    /// text when the panic carried one (the common `panic!("...")` case).
    pub fn from_panic(payload: &(dyn std::any::Any + Send)) -> Self {
        let detail = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned());
        let message = match detail {
            Some(d) => format!("panicked during the run: {d}"),
            None => "panicked during the run".to_string(),
        };
        WorkerError::new(PANIC_FAMILY, PANIC_EXIT_CODE, message)
    }

    /// The failure recorded for a slot whose worker died before writing a
    /// result (only reachable if a worker thread itself aborts).
    pub fn lost() -> Self {
        WorkerError::new(PANIC_FAMILY, PANIC_EXIT_CODE, "worker died before writing a result")
    }

    /// Whether this failure came from a caught panic (retryable by the
    /// service's supervision policy; typed flow failures are not).
    pub fn is_panic(&self) -> bool {
        self.family == PANIC_FAMILY
    }
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}/{}] {}", self.family, self.exit_code, self.message)
    }
}

impl std::error::Error for WorkerError {}

/// Runs `count` jobs on a pool of `jobs` workers (clamped to
/// `1..=count`) pulling indices from a shared counter. The calling thread
/// is one of the workers; the other `jobs - 1` are scoped threads. Worker
/// `i` writes only slot `i`, so the returned vector — and anything
/// assembled from it in order — is independent of scheduling. A
/// panicking job becomes an `Err` slot with the [`PANIC_FAMILY`] taxonomy
/// (and must not take down its worker, which would silently drop every
/// job that worker would have pulled next).
pub fn run_slots<T, F>(count: usize, jobs: usize, run: F) -> Vec<Result<T, WorkerError>>
where
    T: Send,
    F: Fn(usize) -> Result<T, WorkerError> + Sync,
{
    let slots: Vec<Mutex<Option<Result<T, WorkerError>>>> =
        (0..count).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let worker = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= count {
            break;
        }
        let out = catch_unwind(AssertUnwindSafe(|| run(i)))
            .unwrap_or_else(|payload| Err(WorkerError::from_panic(payload.as_ref())));
        *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(out);
    };
    let jobs = jobs.clamp(1, count.max(1));
    // The calling thread is one of the workers, so a one-worker pool
    // spawns no thread at all.
    std::thread::scope(|scope| {
        for _ in 1..jobs {
            scope.spawn(worker);
        }
        worker();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .unwrap_or_else(|| Err(WorkerError::lost()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_slots_is_slot_ordered_for_any_job_count() {
        let run = |i: usize| -> Result<usize, WorkerError> {
            if i == 3 {
                Err(WorkerError::new("analysis", 6, "boom"))
            } else {
                Ok(i * i)
            }
        };
        let one = run_slots(8, 1, run);
        let four = run_slots(8, 4, run);
        assert_eq!(one, four);
        assert_eq!(one[2], Ok(4));
        assert_eq!(one[3], Err(WorkerError::new("analysis", 6, "boom")));
    }

    #[test]
    fn a_single_worker_runs_on_the_calling_thread() {
        let me = std::thread::current().id();
        let on = |i: usize| -> Result<_, WorkerError> { Ok((i, std::thread::current().id())) };
        // `jobs` = 1, and `jobs` > 1 clamped to one job's worth.
        for out in [run_slots(3, 1, on), run_slots(1, 4, on)] {
            for (i, slot) in out.into_iter().enumerate() {
                assert_eq!(slot, Ok((i, me)));
            }
        }
        let caught = run_slots(2, 1, |i| -> Result<usize, WorkerError> {
            if i == 0 {
                panic!("inline job exploded");
            }
            Ok(i)
        });
        assert!(caught[0].as_ref().is_err_and(WorkerError::is_panic));
        assert_eq!(caught[1], Ok(1), "the calling thread survives a caught panic");
    }

    #[test]
    fn panicking_jobs_keep_their_payload_and_taxonomy() {
        let out = run_slots(4, 2, |i| -> Result<usize, WorkerError> {
            if i == 1 {
                panic!("job 1 exploded");
            }
            Ok(i)
        });
        assert_eq!(out[0], Ok(0));
        let err = out[1].clone().expect_err("job 1 panicked");
        assert_eq!(err.family, PANIC_FAMILY);
        assert_eq!(err.exit_code, PANIC_EXIT_CODE);
        assert_eq!(err.message, "panicked during the run: job 1 exploded");
        assert!(err.is_panic());
        assert_eq!(out[2], Ok(2));
        assert_eq!(out[3], Ok(3));
    }

    #[test]
    fn format_panics_keep_their_rendered_message() {
        let out = run_slots(1, 1, |i| -> Result<(), WorkerError> {
            panic!("slot {i} went sideways");
        });
        let err = out[0].clone().expect_err("panicked");
        assert_eq!(err.message, "panicked during the run: slot 0 went sideways");
    }

    #[test]
    fn display_carries_family_and_exit_code() {
        let e = WorkerError::new("netlist", 8, "emission failed");
        assert_eq!(e.to_string(), "[netlist/8] emission failed");
        assert!(!e.is_panic());
    }
}
