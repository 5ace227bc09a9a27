//! Trace recording: algorithms call these helpers as they execute.

use ise_types::addr::Addr;
use ise_types::instr::{FenceKind, Reg};
use ise_types::TraceBuf;

/// Accumulates the instruction trace of an executing algorithm.
///
/// Array elements are 8 bytes; `load_elem(base, i)` records a load of
/// `base + 8 i`. Non-memory work between accesses is recorded as ALU
/// instructions so traces carry realistic instruction mixes. Each call
/// encodes its instruction straight into the trace's byte buffer.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    trace: TraceBuf,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty recorder sized for about `n` instructions, for
    /// generators that know their trace length.
    pub fn with_capacity(n: usize) -> Self {
        TraceRecorder {
            trace: TraceBuf::with_capacity(n),
        }
    }

    /// The recorded trace, frozen in place: the recording buffer becomes
    /// the shared trace without a copy.
    pub fn into_trace(self) -> crate::Trace {
        self.trace.into()
    }

    /// Instructions recorded so far.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Records a load of element `i` of the array at `base`.
    pub fn load_elem(&mut self, base: Addr, i: u64) {
        self.trace.load(base.offset(i * 8), Reg(0));
    }

    /// Records a store of `value` to element `i` of the array at `base`.
    pub fn store_elem(&mut self, base: Addr, i: u64, value: u64) {
        self.trace.store(base.offset(i * 8), value);
    }

    /// Records an atomic fetch-add on element `i` of the array at `base`.
    pub fn atomic_elem(&mut self, base: Addr, i: u64, add: u64) {
        self.trace.atomic(base.offset(i * 8), add, Reg(0));
    }

    /// Records `n` single-cycle ALU instructions.
    pub fn alu(&mut self, n: usize) {
        self.trace.others(n);
    }

    /// Records a full fence.
    pub fn fence(&mut self) {
        self.trace.fence(FenceKind::Full);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;
    use ise_types::instr::InstrKind;
    use ise_types::Instruction;

    #[test]
    fn records_expected_addresses() {
        let mut r = TraceRecorder::new();
        let base = Addr::new(0x1000);
        r.load_elem(base, 3);
        r.store_elem(base, 4, 9);
        r.alu(2);
        r.fence();
        let t: Vec<Instruction> = r.into_trace().iter().collect();
        assert_eq!(t.len(), 5);
        assert_eq!(t[0].kind.addr(), Some(Addr::new(0x1018)));
        assert_eq!(t[1].kind.addr(), Some(Addr::new(0x1020)));
        assert!(matches!(t[2].kind, InstrKind::Other { .. }));
        assert!(matches!(t[4].kind, InstrKind::Fence(_)));
    }

    #[test]
    fn freezing_and_sharing_keep_the_recorded_buffer() {
        let mut r = TraceRecorder::new();
        for i in 0..1000 {
            r.store_elem(Addr::new(0x1000), i, i);
        }
        let t = r.into_trace();
        assert_eq!(t.len(), 1000);
        assert!(Trace::ptr_eq(&t, &t.clone()), "a clone copied the buffer");
        let collected: Trace = t.iter().collect();
        assert_eq!(collected, t);
    }

    #[test]
    fn atomic_records_amo() {
        let mut r = TraceRecorder::new();
        r.atomic_elem(Addr::new(0), 1, 5);
        let t: Vec<Instruction> = r.into_trace().iter().collect();
        assert!(matches!(t[0].kind, InstrKind::Atomic { add: 5, .. }));
    }
}
