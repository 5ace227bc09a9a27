//! Instruction trace sources.

use ise_types::persist::{PersistError, Reader, Writer};
use ise_types::{Instruction, Trace};

/// A pull-based source of instructions for one core.
///
/// Implementations may synthesize instructions lazily; the core keeps
/// uncommitted instructions in its ROB, so sources never need to rewind.
pub trait TraceSource {
    /// The next instruction in program order, or `None` when the program
    /// has ended.
    fn next_instr(&mut self) -> Option<Instruction>;

    /// A hint of how many instructions remain, when cheaply known.
    fn remaining_hint(&self) -> Option<usize> {
        None
    }
}

/// A trace source whose read cursor can be checkpointed and restored.
///
/// Only the *position* within the trace is serialized — the instruction
/// contents are configuration the embedder rebuilds before restoring, so
/// a snapshot stays small no matter how long the trace is. [`FnTrace`]
/// deliberately does not implement this: closure state cannot be
/// captured, so cores fed by generators are not checkpointable.
pub trait PersistTrace: TraceSource {
    /// Writes the cursor state.
    fn save_cursor(&self, w: &mut Writer);
    /// Repositions the cursor from a saved stream. The trace contents
    /// must be the ones the cursor was saved against.
    fn restore_cursor(&mut self, r: &mut Reader) -> Result<(), PersistError>;
}

/// A trace source reading a shared [`Trace`] through a cursor.
///
/// The source holds the trace by refcount, so it fetches from the very
/// buffer the workload generator recorded into: building a core from a
/// trace copies nothing, and many cores or systems (baseline vs.
/// injected runs) can read one trace at once.
#[derive(Debug, Clone)]
pub struct VecTrace {
    instrs: Trace,
    pos: usize,
}

impl VecTrace {
    /// Wraps a complete instruction sequence, keeping its buffer.
    pub fn new(instrs: Vec<Instruction>) -> Self {
        VecTrace::shared(instrs.into())
    }

    /// Reads an already-shared trace without copying it.
    pub fn shared(instrs: Trace) -> Self {
        VecTrace { instrs, pos: 0 }
    }

    /// Total instructions in the trace.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

impl TraceSource for VecTrace {
    fn next_instr(&mut self) -> Option<Instruction> {
        let i = self.instrs.get(self.pos).copied();
        if i.is_some() {
            self.pos += 1;
        }
        i
    }

    fn remaining_hint(&self) -> Option<usize> {
        Some(self.instrs.len() - self.pos)
    }
}

impl PersistTrace for VecTrace {
    fn save_cursor(&self, w: &mut Writer) {
        w.usize(self.pos);
    }
    fn restore_cursor(&mut self, r: &mut Reader) -> Result<(), PersistError> {
        let pos = r.usize()?;
        if pos > self.instrs.len() {
            return Err(PersistError::Corrupt("trace cursor beyond end"));
        }
        self.pos = pos;
        Ok(())
    }
}

impl FromIterator<Instruction> for VecTrace {
    fn from_iter<T: IntoIterator<Item = Instruction>>(iter: T) -> Self {
        VecTrace::new(iter.into_iter().collect())
    }
}

/// A trace synthesized on demand from a closure, for generators too large
/// to materialize.
pub struct FnTrace<F> {
    f: F,
}

impl<F: FnMut() -> Option<Instruction>> FnTrace<F> {
    /// Wraps a generator closure.
    pub fn new(f: F) -> Self {
        FnTrace { f }
    }
}

impl<F: FnMut() -> Option<Instruction>> TraceSource for FnTrace<F> {
    fn next_instr(&mut self) -> Option<Instruction> {
        (self.f)()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_types::addr::Addr;

    #[test]
    fn vec_trace_yields_in_order_then_ends() {
        let mut t = VecTrace::new(vec![
            Instruction::store(Addr::new(0), 1),
            Instruction::other(),
        ]);
        assert_eq!(t.remaining_hint(), Some(2));
        assert_eq!(t.next_instr(), Some(Instruction::store(Addr::new(0), 1)));
        assert_eq!(t.next_instr(), Some(Instruction::other()));
        assert_eq!(t.next_instr(), None);
        assert_eq!(t.next_instr(), None);
        assert_eq!(t.remaining_hint(), Some(0));
    }

    #[test]
    fn fn_trace_synthesizes() {
        let mut n = 0;
        let mut t = FnTrace::new(move || {
            n += 1;
            (n <= 3).then(Instruction::other)
        });
        let mut count = 0;
        while t.next_instr().is_some() {
            count += 1;
        }
        assert_eq!(count, 3);
    }

    #[test]
    fn cursor_round_trip_resumes_mid_trace() {
        let instrs: Vec<Instruction> = (0..10)
            .map(|i| Instruction::store(Addr::new(i * 8), i))
            .collect();
        let mut t = VecTrace::new(instrs.clone());
        for _ in 0..4 {
            t.next_instr();
        }
        let mut w = Writer::container();
        t.save_cursor(&mut w);
        let bytes = w.finish();
        let mut back = VecTrace::new(instrs);
        let mut r = Reader::container(&bytes).unwrap();
        back.restore_cursor(&mut r).unwrap();
        assert_eq!(back.remaining_hint(), t.remaining_hint());
        loop {
            let (a, b) = (t.next_instr(), back.next_instr());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn cursor_restore_rejects_out_of_range() {
        let mut t = VecTrace::new(vec![Instruction::other(); 3]);
        let mut w = Writer::container();
        w.usize(7); // beyond the 3-instruction trace
        let bytes = w.finish();
        let mut r = Reader::container(&bytes).unwrap();
        assert!(matches!(
            t.restore_cursor(&mut r),
            Err(PersistError::Corrupt("trace cursor beyond end"))
        ));
    }

    #[test]
    fn cursors_read_the_buffer_they_were_given() {
        let v = vec![Instruction::other(); 1000];
        let p = v.as_ptr();
        let t = VecTrace::new(v);
        assert_eq!(t.instrs.as_ptr(), p, "VecTrace::new copied the buffer");
        let shared = VecTrace::shared(t.instrs.clone());
        assert_eq!(
            shared.instrs.as_ptr(),
            p,
            "VecTrace::shared copied the trace"
        );
        assert_eq!(
            t.clone().instrs.as_ptr(),
            p,
            "a cursor clone copied the trace"
        );
    }

    #[test]
    fn collect_into_vec_trace() {
        let t: VecTrace = (0..5).map(|_| Instruction::other()).collect();
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
    }
}
