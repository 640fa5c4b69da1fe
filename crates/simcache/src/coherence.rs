//! Per-line coherence state and the snooping-protocol state machines.
//!
//! A multi-core [`crate::CoherentSystem`] keeps one [`LineState`] per
//! tag-array slot alongside the [`crate::TagArray`] entries. The
//! transitions are factored into the [`CoherenceProtocol`] trait with
//! two implementations: the invalidation-based [`Mesi`] (the default)
//! and the update-based [`Dragon`], whose Sm/Sc states map onto
//! [`LineState::SharedModified`] / [`LineState::Shared`].
//!
//! The state machines are pure functions from (state, stimulus) to
//! (state, bus action); all costing and bookkeeping stays in the
//! coherent driver, so the protocol table below is exactly what a
//! textbook diagram shows and what `DESIGN.md` §16 documents.

/// The coherence state of one cached line.
///
/// MESI uses the first four states. Dragon maps its Sc state to
/// [`LineState::Shared`] and adds [`LineState::SharedModified`] (Sm: a
/// dirty copy that other caches also hold; the owner supplies data and
/// writes back on eviction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LineState {
    /// No valid copy.
    #[default]
    Invalid,
    /// Clean, possibly held by other caches too.
    Shared,
    /// Clean and the only cached copy; a write upgrades silently.
    Exclusive,
    /// Dirty and the only cached copy.
    Modified,
    /// Dirty but shared (Dragon Sm): this cache owns the line and must
    /// write it back, while other caches hold read copies.
    SharedModified,
}

impl LineState {
    /// Whether this copy holds data newer than memory (it must be
    /// written back on eviction).
    #[inline]
    pub fn is_dirty(self) -> bool {
        matches!(self, LineState::Modified | LineState::SharedModified)
    }

    /// Whether this copy owns the line (sole writer-responsibility:
    /// at most one owner may exist per line).
    #[inline]
    pub fn is_owner(self) -> bool {
        matches!(self, LineState::Modified | LineState::SharedModified)
    }

    /// Whether the copy is valid at all.
    #[inline]
    pub fn is_valid(self) -> bool {
        self != LineState::Invalid
    }

    /// Short uppercase name (M/E/S/Sm/I), as in protocol diagrams.
    pub fn name(self) -> &'static str {
        match self {
            LineState::Invalid => "I",
            LineState::Shared => "S",
            LineState::Exclusive => "E",
            LineState::Modified => "M",
            LineState::SharedModified => "Sm",
        }
    }
}

/// What a local write hit must put on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteHitAction {
    /// Nothing: the copy was already exclusive (M, or E upgrading
    /// silently).
    None,
    /// An address-only BusUpgr invalidating remote copies (MESI write
    /// hit on S).
    Upgrade,
    /// A word update broadcast to the remote copies, which stay valid
    /// (Dragon write hit on S/Sm with sharers).
    Update,
}

/// How a snooping cache reacts to a remote bus transaction touching a
/// line it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnoopReaction {
    /// The copy's next state ([`LineState::Invalid`] = dropped).
    pub next: LineState,
    /// Whether this copy can source a cache-to-cache transfer for the
    /// requester.
    pub supply: bool,
    /// Whether the copy's dirty data must be flushed toward memory as
    /// part of the transaction.
    pub flush_dirty: bool,
}

/// A snooping coherence protocol: pure transition tables consulted by
/// the coherent driver. Implementations are zero-sized types selected
/// at compile time.
pub trait CoherenceProtocol: std::fmt::Debug + Clone + Copy + Default + Send + 'static {
    /// Protocol name as printed by reports ("MESI", "Dragon").
    const NAME: &'static str;

    /// Update-based protocols broadcast word updates on shared write
    /// hits instead of invalidating; the driver routes
    /// [`WriteHitAction::Update`] to [`CoherenceProtocol::snoop_update`]
    /// on the remote copies.
    const UPDATE_BASED: bool;

    /// State of a line just filled by a read miss, given whether any
    /// other cache still holds a copy after the snoop.
    fn fill_read(shared_elsewhere: bool) -> LineState;

    /// State of a line just filled by a write miss, given whether any
    /// other cache still holds a copy after the snoop (always false for
    /// invalidation protocols — BusRdX removed them).
    fn fill_write(shared_elsewhere: bool) -> LineState;

    /// Transition for a write hit on a valid local copy; `shared_elsewhere`
    /// is whether any remote cache holds the line right now. The driver
    /// looks that up (a tag probe in every other core) only when
    /// [`CoherenceProtocol::write_hit_needs_sharers`] says the answer
    /// can change the result, and passes `false` otherwise.
    fn write_hit(state: LineState, shared_elsewhere: bool) -> (LineState, WriteHitAction);

    /// Whether [`CoherenceProtocol::write_hit`] from `state` reads
    /// `shared_elsewhere`.
    fn write_hit_needs_sharers(state: LineState) -> bool;

    /// Reaction of a valid remote copy to an observed BusRd.
    fn snoop_read(state: LineState) -> SnoopReaction;

    /// Reaction of a valid remote copy to an observed BusRdX/BusUpgr
    /// (a remote cache wants to write).
    fn snoop_write(state: LineState) -> SnoopReaction;

    /// Reaction of a valid remote copy to an observed word update
    /// (update-based protocols only; invalidation protocols never call
    /// this).
    fn snoop_update(state: LineState) -> LineState {
        state
    }
}

/// The four-state invalidation protocol (Modified / Exclusive / Shared /
/// Invalid). Write hits on shared lines issue an address-only BusUpgr;
/// remote writes invalidate; a dirty owner flushes on any remote access.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mesi;

impl CoherenceProtocol for Mesi {
    const NAME: &'static str = "MESI";
    const UPDATE_BASED: bool = false;

    fn fill_read(shared_elsewhere: bool) -> LineState {
        if shared_elsewhere {
            LineState::Shared
        } else {
            LineState::Exclusive
        }
    }

    fn fill_write(_shared_elsewhere: bool) -> LineState {
        LineState::Modified
    }

    fn write_hit_needs_sharers(_state: LineState) -> bool {
        false
    }

    fn write_hit(state: LineState, _shared_elsewhere: bool) -> (LineState, WriteHitAction) {
        match state {
            // E -> M is the silent upgrade MESI adds over MSI.
            LineState::Exclusive | LineState::Modified => {
                (LineState::Modified, WriteHitAction::None)
            }
            LineState::Shared => (LineState::Modified, WriteHitAction::Upgrade),
            // Sm never arises under MESI; Invalid write hits are
            // contradictions the driver never produces.
            other => (other, WriteHitAction::None),
        }
    }

    fn snoop_read(state: LineState) -> SnoopReaction {
        match state {
            LineState::Modified => SnoopReaction {
                next: LineState::Shared,
                supply: true,
                flush_dirty: true,
            },
            LineState::Exclusive | LineState::Shared => SnoopReaction {
                next: LineState::Shared,
                supply: true,
                flush_dirty: false,
            },
            other => SnoopReaction {
                next: other,
                supply: false,
                flush_dirty: false,
            },
        }
    }

    fn snoop_write(state: LineState) -> SnoopReaction {
        match state {
            LineState::Modified => SnoopReaction {
                next: LineState::Invalid,
                supply: true,
                flush_dirty: true,
            },
            LineState::Exclusive | LineState::Shared => SnoopReaction {
                next: LineState::Invalid,
                supply: state == LineState::Exclusive,
                flush_dirty: false,
            },
            other => SnoopReaction {
                next: other,
                supply: false,
                flush_dirty: false,
            },
        }
    }
}

/// The update-based Dragon protocol: write hits on shared lines
/// broadcast the written word instead of invalidating, so remote read
/// copies stay live (no false-sharing ping-pong, at the price of update
/// traffic). States map as E/Sc/Sm/M with Sc = [`LineState::Shared`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Dragon;

impl CoherenceProtocol for Dragon {
    const NAME: &'static str = "Dragon";
    const UPDATE_BASED: bool = true;

    fn fill_read(shared_elsewhere: bool) -> LineState {
        if shared_elsewhere {
            LineState::Shared
        } else {
            LineState::Exclusive
        }
    }

    fn fill_write(shared_elsewhere: bool) -> LineState {
        // A write miss does BusRd + BusUpd: with sharers left the writer
        // becomes the Sm owner, alone it takes M.
        if shared_elsewhere {
            LineState::SharedModified
        } else {
            LineState::Modified
        }
    }

    fn write_hit_needs_sharers(state: LineState) -> bool {
        matches!(state, LineState::Shared | LineState::SharedModified)
    }

    fn write_hit(state: LineState, shared_elsewhere: bool) -> (LineState, WriteHitAction) {
        match state {
            LineState::Exclusive | LineState::Modified => {
                (LineState::Modified, WriteHitAction::None)
            }
            LineState::Shared | LineState::SharedModified => {
                if shared_elsewhere {
                    (LineState::SharedModified, WriteHitAction::Update)
                } else {
                    (LineState::Modified, WriteHitAction::None)
                }
            }
            other => (other, WriteHitAction::None),
        }
    }

    fn snoop_read(state: LineState) -> SnoopReaction {
        match state {
            // A dirty owner supplies the line and stays the owner
            // (memory is not updated under Dragon).
            LineState::Modified | LineState::SharedModified => SnoopReaction {
                next: LineState::SharedModified,
                supply: true,
                flush_dirty: false,
            },
            LineState::Exclusive | LineState::Shared => SnoopReaction {
                next: LineState::Shared,
                supply: true,
                flush_dirty: false,
            },
            other => SnoopReaction {
                next: other,
                supply: false,
                flush_dirty: false,
            },
        }
    }

    fn snoop_write(state: LineState) -> SnoopReaction {
        // Dragon write misses fetch with BusRd and then update; remote
        // copies react as to a read plus an update — they are never
        // invalidated.
        Self::snoop_read(state)
    }

    fn snoop_update(state: LineState) -> LineState {
        match state {
            // A remote writer took ownership; our copy demotes to a
            // clean shared one (the update folded its word in).
            LineState::SharedModified | LineState::Modified | LineState::Shared => {
                LineState::Shared
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_predicates() {
        assert!(LineState::Modified.is_dirty() && LineState::Modified.is_owner());
        assert!(LineState::SharedModified.is_dirty());
        assert!(!LineState::Exclusive.is_dirty());
        assert!(!LineState::Shared.is_owner());
        assert!(!LineState::Invalid.is_valid());
        assert_eq!(LineState::SharedModified.name(), "Sm");
    }

    /// The driver skips the sharer lookup wherever a protocol says
    /// `write_hit` ignores it; that must hold for every state.
    fn write_hit_ignores_sharers_where_it_says<P: CoherenceProtocol>() {
        use LineState::*;
        for state in [Invalid, Shared, Exclusive, Modified, SharedModified] {
            if !P::write_hit_needs_sharers(state) {
                assert_eq!(
                    P::write_hit(state, true),
                    P::write_hit(state, false),
                    "{} {state:?}",
                    P::NAME
                );
            }
        }
    }

    #[test]
    fn write_hit_needs_sharers_is_exact() {
        write_hit_ignores_sharers_where_it_says::<Mesi>();
        write_hit_ignores_sharers_where_it_says::<Dragon>();
        // Dragon's shared write hits do depend on the answer.
        for state in [LineState::Shared, LineState::SharedModified] {
            assert!(Dragon::write_hit_needs_sharers(state));
            assert_ne!(
                Dragon::write_hit(state, true),
                Dragon::write_hit(state, false)
            );
        }
    }

    #[test]
    fn mesi_read_fill_exclusive_when_alone() {
        assert_eq!(Mesi::fill_read(false), LineState::Exclusive);
        assert_eq!(Mesi::fill_read(true), LineState::Shared);
        assert_eq!(Mesi::fill_write(false), LineState::Modified);
    }

    #[test]
    fn mesi_silent_upgrade_from_exclusive() {
        let (next, action) = Mesi::write_hit(LineState::Exclusive, false);
        assert_eq!(next, LineState::Modified);
        assert_eq!(action, WriteHitAction::None);
        let (next, action) = Mesi::write_hit(LineState::Shared, true);
        assert_eq!(next, LineState::Modified);
        assert_eq!(action, WriteHitAction::Upgrade);
    }

    #[test]
    fn mesi_snoops_invalidate_on_remote_write() {
        let r = Mesi::snoop_write(LineState::Modified);
        assert_eq!(r.next, LineState::Invalid);
        assert!(r.supply && r.flush_dirty);
        let r = Mesi::snoop_write(LineState::Shared);
        assert_eq!(r.next, LineState::Invalid);
        assert!(!r.flush_dirty);
    }

    #[test]
    fn mesi_dirty_owner_flushes_on_remote_read() {
        let r = Mesi::snoop_read(LineState::Modified);
        assert_eq!(r.next, LineState::Shared);
        assert!(r.supply && r.flush_dirty);
    }

    #[test]
    fn dragon_updates_instead_of_invalidating() {
        let (next, action) = Dragon::write_hit(LineState::Shared, true);
        assert_eq!(next, LineState::SharedModified);
        assert_eq!(action, WriteHitAction::Update);
        // Remote copies stay valid under a write snoop.
        let r = Dragon::snoop_write(LineState::Shared);
        assert!(r.next.is_valid());
        // And a snooped update demotes an owner to a clean sharer.
        assert_eq!(
            Dragon::snoop_update(LineState::SharedModified),
            LineState::Shared
        );
    }

    #[test]
    fn dragon_write_hit_with_no_sharers_goes_modified() {
        let (next, action) = Dragon::write_hit(LineState::Shared, false);
        assert_eq!(next, LineState::Modified);
        assert_eq!(action, WriteHitAction::None);
    }
}
