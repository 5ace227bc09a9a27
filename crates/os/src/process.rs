//! Process lifecycle: one process per core, killed by an irrecoverable
//! exception.
//!
//! Paper §5.3 serializes interrupts against imprecise store exceptions
//! through the Interrupt Enable (IE) bit, set while a handler runs. The
//! simulator models that window once, as `ise-sim`'s per-core
//! `handler_busy_until`: a timer interrupt arriving inside it is
//! deferred.

use ise_types::CoreId;
use std::fmt;

/// Lifecycle state of a simulated process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessState {
    /// Scheduled and executing.
    Running,
    /// Blocked in an exception handler.
    Blocked,
    /// Terminated by an irrecoverable exception.
    Killed,
}

impl fmt::Display for ProcessState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProcessState::Running => "running",
            ProcessState::Blocked => "blocked",
            ProcessState::Killed => "killed",
        };
        write!(f, "{s}")
    }
}

/// One simulated process, pinned to one core (the evaluation runs one
/// workload process per core).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Process {
    /// Process id.
    pub pid: u32,
    /// Core the process runs on.
    pub core: CoreId,
    /// Current state.
    pub state: ProcessState,
}

impl Process {
    /// Spawns a running process.
    pub fn spawn(pid: u32, core: CoreId) -> Self {
        Process {
            pid,
            core,
            state: ProcessState::Running,
        }
    }

    /// Blocks the process for exception handling.
    ///
    /// # Panics
    ///
    /// Panics if the process is not running.
    pub fn block(&mut self) {
        assert_eq!(
            self.state,
            ProcessState::Running,
            "only running processes block"
        );
        self.state = ProcessState::Blocked;
    }

    /// Resumes a blocked process.
    ///
    /// # Panics
    ///
    /// Panics if the process is not blocked.
    pub fn resume(&mut self) {
        assert_eq!(
            self.state,
            ProcessState::Blocked,
            "only blocked processes resume"
        );
        self.state = ProcessState::Running;
    }

    /// Terminates the process (irrecoverable exception). Idempotent:
    /// returns `true` only on the transition into `Killed`, so a second
    /// kill — e.g. an early-drain continuation racing a chunk that
    /// already terminated the episode — neither panics nor double-counts
    /// in any per-process statistic keyed on the return value.
    pub fn kill(&mut self) -> bool {
        let newly = self.state != ProcessState::Killed;
        self.state = ProcessState::Killed;
        newly
    }
}

mod persist_impls {
    use super::*;
    use ise_types::persist::{Persist, PersistError, Reader, Writer};

    impl Persist for ProcessState {
        fn save(&self, w: &mut Writer) {
            w.u8(match self {
                ProcessState::Running => 0,
                ProcessState::Blocked => 1,
                ProcessState::Killed => 2,
            });
        }
        fn restore(r: &mut Reader) -> Result<Self, PersistError> {
            Ok(match r.u8()? {
                0 => ProcessState::Running,
                1 => ProcessState::Blocked,
                2 => ProcessState::Killed,
                _ => return Err(PersistError::Corrupt("ProcessState discriminant")),
            })
        }
    }

    impl Persist for Process {
        fn save(&self, w: &mut Writer) {
            w.u32(self.pid);
            self.core.save(w);
            self.state.save(w);
        }
        fn restore(r: &mut Reader) -> Result<Self, PersistError> {
            Ok(Process {
                pid: r.u32()?,
                core: Persist::restore(r)?,
                state: Persist::restore(r)?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_lifecycle() {
        let mut p = Process::spawn(1, CoreId(0));
        assert_eq!(p.state, ProcessState::Running);
        p.block();
        assert_eq!(p.state, ProcessState::Blocked);
        p.resume();
        assert_eq!(p.state, ProcessState::Running);
        assert!(p.kill(), "first kill is the real transition");
        assert_eq!(p.state, ProcessState::Killed);
    }

    #[test]
    fn kill_is_idempotent() {
        let mut p = Process::spawn(1, CoreId(0));
        assert!(p.kill());
        assert!(!p.kill(), "second kill reports already-dead");
        assert_eq!(p.state, ProcessState::Killed);
        // Killing from Blocked works too (mid-handler termination).
        let mut q = Process::spawn(2, CoreId(1));
        q.block();
        assert!(q.kill());
        assert!(!q.kill());
    }

    #[test]
    #[should_panic(expected = "only running processes block")]
    fn double_block_panics() {
        let mut p = Process::spawn(1, CoreId(0));
        p.block();
        p.block();
    }

    #[test]
    fn persist_round_trips_every_state() {
        use ise_types::persist::{restore_container, save_container};
        for mutate in [
            (|_: &mut Process| {}) as fn(&mut Process),
            |p| p.block(),
            |p| {
                p.kill();
            },
        ] {
            let mut p = Process::spawn(7, CoreId(3));
            mutate(&mut p);
            let bytes = save_container(&p);
            let back: Process = restore_container(&bytes).unwrap();
            assert_eq!(back, p);
        }
    }
}
