//! Lease-based tile assignment with at-most-once commit.
//!
//! The sharded tile engine deals tiles to a fleet of socket workers.
//! Under network chaos the same tile can be in flight on two workers
//! at once: worker A wedges mid-tile, the lease expires, the tile is
//! re-dealt to worker B — and then A's result arrives late anyway.
//! [`LeaseTable`] is the arbiter that makes this safe:
//!
//! * every grant carries a fresh, monotonically increasing **epoch**
//!   (the wire request id), so the table can tell the live lease from
//!   every superseded one;
//! * [`LeaseTable::commit`] accepts a result only when it carries the
//!   *current* epoch of a tile that is still leased — duplicate results
//!   (same epoch twice: a duplicated frame) and stale results (an
//!   expired lease's epoch) are refused with a typed verdict;
//! * a committed tile is final: no later result, however confused the
//!   sender, can overwrite or double-count it.
//!
//! Scoring is deterministic, so refusing a stale result is correct
//! either way — the committed bytes are identical to what the stale
//! sender computed. Refusal is simply the smaller proof obligation:
//! exactly one spill per tile ever happens.
//!
//! The table is single-threaded on purpose (the coordinator owns it
//! behind its own mutex); it tracks assignment, not I/O.

use std::collections::HashMap;

/// Lifecycle of one tile in the shard scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TileState {
    /// Not yet dealt (or returned to the queue by an expiry).
    Pending,
    /// Held by a worker under the given epoch.
    Leased { epoch: u64 },
    /// Committed; the spill exists and is final.
    Done,
}

/// Verdict of a commit attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// First valid result for this tile under its live epoch: the
    /// caller owns the spill now.
    Committed,
    /// The tile is already committed — a duplicated or re-sent result.
    /// Discard it.
    Duplicate,
    /// The epoch does not match the live lease (an expired lease's
    /// result arriving late, or a result for a tile not currently
    /// leased). Discard it.
    Stale,
}

/// Per-tile lease registry with monotonically increasing epochs.
#[derive(Debug)]
pub struct LeaseTable {
    states: Vec<TileState>,
    /// Live epoch → tile, for reverse lookups on incoming results.
    by_epoch: HashMap<u64, usize>,
    next_epoch: u64,
    granted: usize,
    expired: usize,
    refused: usize,
}

impl LeaseTable {
    /// A table over `tiles` tiles, all pending.
    pub fn new(tiles: usize) -> Self {
        LeaseTable {
            states: vec![TileState::Pending; tiles],
            by_epoch: HashMap::new(),
            next_epoch: 1,
            granted: 0,
            expired: 0,
            refused: 0,
        }
    }

    /// Number of tiles the table tracks.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when the table tracks no tiles.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Appends one pending tile and returns its index (crash
    /// attribution splits a lost unit into new ones).
    pub fn add(&mut self) -> usize {
        self.states.push(TileState::Pending);
        self.states.len() - 1
    }

    /// Grants a lease on `tile`, superseding any live lease it had
    /// (the old epoch becomes stale immediately). Returns the new
    /// epoch, or `None` when the tile is already committed.
    pub fn lease(&mut self, tile: usize) -> Option<u64> {
        match self.states[tile] {
            TileState::Done => None,
            prev => {
                if let TileState::Leased { epoch } = prev {
                    self.by_epoch.remove(&epoch);
                }
                let epoch = self.next_epoch;
                // Epoch uniqueness is the whole at-most-once argument:
                // a wrapped counter could resurrect a zombie's stale
                // epoch as live. u64 exhaustion is unreachable in
                // practice (5 GHz of grants for a century), so treat it
                // as corruption, never wrap.
                self.next_epoch = self
                    .next_epoch
                    .checked_add(1)
                    .expect("lease epoch counter exhausted");
                self.states[tile] = TileState::Leased { epoch };
                self.by_epoch.insert(epoch, tile);
                self.granted += 1;
                Some(epoch)
            }
        }
    }

    /// Expires the live lease on `tile` (holder died or went silent):
    /// the tile returns to pending and its epoch becomes stale. No-op
    /// for tiles not currently leased.
    pub fn expire(&mut self, tile: usize) {
        if let TileState::Leased { epoch } = self.states[tile] {
            self.by_epoch.remove(&epoch);
            self.states[tile] = TileState::Pending;
            self.expired += 1;
        }
    }

    /// The tile currently leased under `epoch`, if that epoch is live.
    pub fn tile_of(&self, epoch: u64) -> Option<usize> {
        self.by_epoch.get(&epoch).copied()
    }

    /// Attempts to commit `tile` under `epoch`. Exactly one call per
    /// tile ever returns [`CommitOutcome::Committed`].
    pub fn commit(&mut self, tile: usize, epoch: u64) -> CommitOutcome {
        match self.states[tile] {
            TileState::Done => {
                self.refused += 1;
                CommitOutcome::Duplicate
            }
            TileState::Leased { epoch: live } if live == epoch => {
                self.by_epoch.remove(&epoch);
                self.states[tile] = TileState::Done;
                CommitOutcome::Committed
            }
            _ => {
                self.refused += 1;
                CommitOutcome::Stale
            }
        }
    }

    /// Marks a tile done outside the lease protocol (resumed from a
    /// verified spill, or computed by the local fallback). Any live
    /// lease it had becomes stale.
    pub fn force_done(&mut self, tile: usize) {
        if let TileState::Leased { epoch } = self.states[tile] {
            self.by_epoch.remove(&epoch);
        }
        self.states[tile] = TileState::Done;
    }

    /// True once every tile is committed.
    pub fn all_done(&self) -> bool {
        self.states.iter().all(|s| *s == TileState::Done)
    }

    /// Tiles still pending (not leased, not committed), in index order.
    pub fn pending(&self) -> Vec<usize> {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == TileState::Pending)
            .map(|(i, _)| i)
            .collect()
    }

    /// Leases granted over the table's lifetime (re-leases count).
    pub fn leases_granted(&self) -> usize {
        self.granted
    }

    /// Leases expired over the table's lifetime.
    pub fn leases_expired(&self) -> usize {
        self.expired
    }

    /// Commits refused (duplicate or stale) over the table's lifetime.
    pub fn commits_refused(&self) -> usize {
        self.refused
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_are_unique_and_monotonic() {
        let mut t = LeaseTable::new(3);
        let e0 = t.lease(0).unwrap();
        let e1 = t.lease(1).unwrap();
        let e2 = t.lease(2).unwrap();
        assert!(e0 < e1 && e1 < e2, "epochs must increase");
        assert_eq!(t.tile_of(e1), Some(1));
        assert_eq!(t.leases_granted(), 3);
    }

    #[test]
    fn commit_is_at_most_once() {
        let mut t = LeaseTable::new(1);
        let e = t.lease(0).unwrap();
        assert_eq!(t.commit(0, e), CommitOutcome::Committed);
        // The same result delivered twice (a duplicated frame).
        assert_eq!(t.commit(0, e), CommitOutcome::Duplicate);
        // A fresh lease on a committed tile is refused outright.
        assert_eq!(t.lease(0), None);
        assert!(t.all_done());
        assert_eq!(t.commits_refused(), 1);
    }

    #[test]
    fn stale_epochs_never_commit() {
        let mut t = LeaseTable::new(1);
        let old = t.lease(0).unwrap();
        // Holder went silent; the tile is re-dealt.
        t.expire(0);
        let new = t.lease(0).unwrap();
        assert_ne!(old, new);
        // The zombie's late result must not win.
        assert_eq!(t.commit(0, old), CommitOutcome::Stale);
        assert_eq!(t.commit(0, new), CommitOutcome::Committed);
        assert_eq!(t.leases_expired(), 1);
        assert_eq!(t.commits_refused(), 1);
    }

    #[test]
    fn releasing_supersedes_the_live_epoch() {
        let mut t = LeaseTable::new(1);
        let old = t.lease(0).unwrap();
        // Re-lease without an explicit expire (lost worker detected at
        // grant time): the old epoch silently dies.
        let new = t.lease(0).unwrap();
        assert_eq!(t.tile_of(old), None);
        assert_eq!(t.commit(0, old), CommitOutcome::Stale);
        assert_eq!(t.commit(0, new), CommitOutcome::Committed);
    }

    #[test]
    fn force_done_invalidates_the_lease() {
        let mut t = LeaseTable::new(2);
        let e = t.lease(0).unwrap();
        // Local fallback finished the tile while a zombie held it.
        t.force_done(0);
        assert_eq!(t.commit(0, e), CommitOutcome::Duplicate);
        assert!(!t.all_done());
        assert_eq!(t.pending(), vec![1]);
        t.force_done(1);
        assert!(t.all_done());
    }

    #[test]
    fn double_expiry_chain_keeps_every_dead_epoch_stale() {
        // The full zombie parade: lease → expire → re-lease → expire
        // again → re-lease. Both dead epochs' results then arrive late,
        // in either order, and must be refused; only the third (live)
        // epoch commits.
        let mut t = LeaseTable::new(1);
        let e1 = t.lease(0).unwrap();
        t.expire(0);
        let e2 = t.lease(0).unwrap();
        t.expire(0);
        let e3 = t.lease(0).unwrap();
        assert!(e1 < e2 && e2 < e3);
        assert_eq!(t.tile_of(e1), None);
        assert_eq!(t.tile_of(e2), None);
        assert_eq!(t.tile_of(e3), Some(0));
        // Second zombie reports first, then the first.
        assert_eq!(t.commit(0, e2), CommitOutcome::Stale);
        assert_eq!(t.commit(0, e1), CommitOutcome::Stale);
        assert_eq!(t.commit(0, e3), CommitOutcome::Committed);
        // Post-commit, the zombies retry: now Duplicate, not Stale.
        assert_eq!(t.commit(0, e1), CommitOutcome::Duplicate);
        assert_eq!(t.leases_granted(), 3);
        assert_eq!(t.leases_expired(), 2);
        assert_eq!(t.commits_refused(), 3);
        assert!(t.all_done());
    }

    #[test]
    #[should_panic(expected = "lease epoch counter exhausted")]
    fn epoch_counter_exhaustion_panics_instead_of_wrapping() {
        // A wrapped epoch counter would hand a live lease an epoch some
        // zombie may still hold — the guard must refuse to wrap.
        let mut t = LeaseTable::new(1);
        t.next_epoch = u64::MAX;
        let e = t.lease(0);
        // Unreachable: the grant at u64::MAX must panic, not succeed.
        assert_eq!(e, Some(u64::MAX));
    }

    #[test]
    fn expire_on_unleased_tile_is_a_no_op() {
        let mut t = LeaseTable::new(1);
        t.expire(0);
        assert_eq!(t.leases_expired(), 0);
        let e = t.lease(0).unwrap();
        assert_eq!(t.commit(0, e), CommitOutcome::Committed);
        t.expire(0);
        assert_eq!(t.leases_expired(), 0, "done tiles cannot expire");
    }
}
