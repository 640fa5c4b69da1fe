//! The probe trait and its zero-cost no-op implementation.

use crate::Event;

/// An observer attached to a cache engine.
///
/// Engines call [`Probe::on_ref`] once per reference (with the address,
/// its line number and the access direction) and [`Probe::on_event`] once
/// per mechanism event, at exactly the sites where the corresponding
/// `Metrics` counters are bumped — so an aggregating probe can
/// reconcile its totals against the engine's counters to the last unit.
///
/// The engines are generic over `P: Probe` with [`NoopProbe`] as the
/// default, and guard every call site with `if P::ENABLED { ... }`.
/// `ENABLED` is an associated `const`, so for the no-op probe the guard
/// — including the construction of the event value behind it — is
/// folded away at monomorphization time: an unprobed engine compiles to
/// exactly the code it had before probes existed, and its figure output
/// is byte-identical.
pub trait Probe {
    /// Whether the engine should construct and deliver events at all.
    /// `false` only for [`NoopProbe`]; the engines' call-site guards
    /// const-fold on it.
    const ENABLED: bool = true;

    /// One reference is being processed: `addr` is its byte address,
    /// `line` the main-cache line it maps to, `is_write` its direction.
    /// Called before the event(s) the reference may generate.
    fn on_ref(&mut self, addr: u64, line: u64, is_write: bool);

    /// One mechanism event (miss, bounce, swap, prefetch, fill,
    /// writeback) occurred while processing the current reference.
    fn on_event(&mut self, event: &Event);

    /// A replay chunk was folded into the engine's `Metrics`. The
    /// arguments are the engine's *cumulative* totals at the fold:
    /// `refs` references processed so far and `mem_cycles` memory
    /// cycles accumulated so far. Windowed probes ([`crate::Timeline`])
    /// use consecutive folds to attribute cycle deltas to reference
    /// windows; the default body ignores the fold so existing probes
    /// are unaffected.
    #[inline]
    fn on_chunk(&mut self, refs: u64, mem_cycles: u64) {
        let _ = (refs, mem_cycles);
    }
}

/// The disabled probe: every hook is an empty `#[inline(always)]` body
/// and [`Probe::ENABLED`] is `false`, so probed engines monomorphize to
/// their original unprobed code. This is the default probe type of both
/// engines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    const ENABLED: bool = false;

    #[inline(always)]
    fn on_ref(&mut self, _addr: u64, _line: u64, _is_write: bool) {}

    #[inline(always)]
    fn on_event(&mut self, _event: &Event) {}

    #[inline(always)]
    fn on_chunk(&mut self, _refs: u64, _mem_cycles: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_counting_is_enabled() {
        const { assert!(!NoopProbe::ENABLED) };
        const { assert!(crate::EventCounts::ENABLED) };
        let mut c = crate::EventCounts::default();
        c.on_ref(0, 0, false);
        c.on_event(&Event::Swap { line: 1 });
        c.on_event(&Event::Swap { line: 2 });
        assert_eq!((c.refs, c.swaps), (1, 2));
    }
}
