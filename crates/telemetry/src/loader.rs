//! Reconnect bookkeeping for the load generator.
//!
//! The `collector-load` binary drives strictly sequential uploads per
//! user. Before this module it treated every ACK as final: after a
//! server kill it reconnected and carried on from the pre-crash ACK
//! frontier, leaning on a whole-run verify pass to patch holes at the
//! end. That is wrong in a sharper way once the server persists through
//! a [`crate::storage::CheckpointStore`]: a restart can recover an
//! *older generation*, silently discarding batches it acked after that
//! generation was sealed — and nothing in the SLCS reply stream tells
//! the client which generation survived.
//!
//! [`LoaderUser`] makes the frontier honest. ACKs are only *tentative*
//! until proven against the current server incarnation; a reconnect
//! invalidates the proof (the peer may be a freshly recovered process),
//! and the loader re-offers the whole tentative frontier before sending
//! anything new. The collector's dedup set — which is part of the
//! checkpoint, so it travels with whatever generation was recovered —
//! makes re-proving cheap: batches the recovered generation kept come
//! back `Duplicate`, and batches it lost come back `Accepted`, which is
//! exactly the gap being resent. The re-proof is what makes the final
//! dataset byte-identical to an uninterrupted run no matter where the
//! kill landed relative to the checkpoint cadence.
//!
//! The binary's verify pass is a second, fresh [`LoaderUser`] run over
//! the same sequence numbers — one upload loop serves both phases.

use crate::slcs::AckStatus;

/// What a reconnect means for the upload plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconnectOutcome {
    /// Nothing was ever kept: continue from the first batch.
    FreshStart,
    /// The tentative frontier `first..=last` must be re-offered (and
    /// re-proved) against the new server incarnation before any fresh
    /// upload; the recovered generation may predate any of it.
    Reverify {
        /// First sequence number to re-offer.
        first: u64,
        /// Last sequence number to re-offer (the tentative frontier).
        last: u64,
    },
}

/// Sequential upload state for one load-generator user, with
/// restart-aware frontier accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoaderUser {
    user: u64,
    total: u64,
    /// Next sequence number to offer (1-based; `total + 1` when done).
    cursor: u64,
    /// Tentative frontier: highest contiguous seq ever kept-acked.
    acked: u64,
    /// Batches a restart had actually lost (acked before a reconnect,
    /// `Accepted` — not `Duplicate` — when re-offered after it).
    gap_resent: u64,
    /// Reconnects observed.
    reconnects: u64,
}

impl LoaderUser {
    /// A user that will upload sequence numbers `1..=total`.
    pub fn new(user: u64, total: u64) -> Self {
        LoaderUser {
            user,
            total,
            cursor: 1,
            acked: 0,
            gap_resent: 0,
            reconnects: 0,
        }
    }

    /// The user identifier.
    pub fn user(&self) -> u64 {
        self.user
    }

    /// The next sequence number to offer, or `None` when every batch has
    /// been kept by the current server incarnation.
    pub fn next_seq(&self) -> Option<u64> {
        if self.cursor <= self.total {
            Some(self.cursor)
        } else {
            None
        }
    }

    /// Whether the offer at `seq` re-proves an already-acked batch
    /// (true) or is a fresh upload (false).
    pub fn is_reproof(&self, seq: u64) -> bool {
        seq <= self.acked
    }

    /// Records a kept ACK (`Accepted`, `Duplicate`, or `Quarantined` —
    /// the server holds the batch either way) for the cursor's sequence
    /// number and advances.
    pub fn on_kept(&mut self, seq: u64, status: AckStatus) {
        debug_assert_eq!(seq, self.cursor, "uploads are strictly sequential");
        if self.is_reproof(seq) {
            // Re-proving the frontier: `Duplicate` means the recovered
            // generation kept it; anything else means the restart had
            // lost it and this offer just resent the gap.
            if status != AckStatus::Duplicate {
                self.gap_resent += 1;
            }
        } else {
            self.acked = seq;
        }
        self.cursor = seq + 1;
    }

    /// Invalidates the incarnation proof: the peer on the next exchange
    /// may be a restarted server that recovered an older checkpoint
    /// generation, so the whole tentative frontier must be re-offered.
    pub fn on_reconnect(&mut self) -> ReconnectOutcome {
        self.reconnects += 1;
        self.cursor = 1;
        if self.acked == 0 {
            ReconnectOutcome::FreshStart
        } else {
            ReconnectOutcome::Reverify {
                first: 1,
                last: self.acked,
            }
        }
    }

    /// Every batch offered and kept, with the frontier proven against
    /// the server incarnation that saw the last offer.
    pub fn is_done(&self) -> bool {
        self.cursor > self.total
    }

    /// Batches a restart had lost and this loader resent.
    pub fn gap_resent(&self) -> u64 {
        self.gap_resent
    }

    /// Reconnects observed.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{decode_server_checkpoint, encode_server_checkpoint};
    use crate::client::synthetic_batch;
    use crate::ingest::Collector;
    use starlink_simcore::SimTime;

    /// Drives `user` to completion against `collector`, honouring the
    /// loader's cursor, and returns when every batch is kept.
    fn drive(user: &mut LoaderUser, collector: &mut Collector, pages: u32) {
        while let Some(seq) = user.next_seq() {
            let payload = synthetic_batch(user.user(), seq, pages);
            let status = AckStatus::from(&collector.submit(&payload, SimTime::from_secs(seq)));
            user.on_kept(seq, status);
        }
    }

    #[test]
    fn uninterrupted_run_needs_no_resends() {
        let mut collector = Collector::new();
        let mut user = LoaderUser::new(3, 8);
        drive(&mut user, &mut collector, 4);
        assert!(user.is_done());
        assert_eq!(user.gap_resent(), 0);
        assert_eq!(collector.accepted_batches(), 8);
    }

    #[test]
    fn restart_onto_an_older_generation_resends_exactly_the_gap() {
        // Reference: a straight-through run.
        let mut reference = Collector::new();
        let mut ref_user = LoaderUser::new(7, 8);
        drive(&mut ref_user, &mut reference, 4);

        // Interrupted run: the server seals a checkpoint generation
        // after seq 5, keeps acking through seq 8, then dies and comes
        // back on the older generation — batches 6..=8 are gone from the
        // dataset but their acks already reached the client.
        let mut collector = Collector::new();
        let mut user = LoaderUser::new(7, 8);
        for seq in 1..=8u64 {
            assert_eq!(user.next_seq(), Some(seq));
            let payload = synthetic_batch(7, seq, 4);
            let status = AckStatus::from(&collector.submit(&payload, SimTime::from_secs(seq)));
            user.on_kept(seq, status);
        }
        let generation_after_5 = {
            let mut at_5 = Collector::new();
            for seq in 1..=5u64 {
                at_5.submit(&synthetic_batch(7, seq, 4), SimTime::from_secs(seq));
            }
            encode_server_checkpoint(&at_5)
        };
        let mut recovered =
            decode_server_checkpoint(&generation_after_5).expect("generation blob is valid");
        assert_eq!(recovered.accepted_batches(), 5, "restart lost 6..=8");

        // The loader must NOT assume its pre-crash frontier of 8.
        assert_eq!(
            user.on_reconnect(),
            ReconnectOutcome::Reverify { first: 1, last: 8 }
        );
        drive(&mut user, &mut recovered, 4);
        assert!(user.is_done());
        assert_eq!(
            user.gap_resent(),
            3,
            "exactly the batches the recovered generation lost"
        );
        assert_eq!(
            recovered.dataset().digest(),
            reference.dataset().digest(),
            "after the gap resend the dataset matches the uninterrupted run"
        );
    }

    #[test]
    fn reconnect_without_data_loss_proves_the_frontier_by_duplicates() {
        let mut collector = Collector::new();
        let mut user = LoaderUser::new(1, 4);
        for seq in 1..=2u64 {
            let payload = synthetic_batch(1, seq, 3);
            let status = AckStatus::from(&collector.submit(&payload, SimTime::from_secs(seq)));
            user.on_kept(seq, status);
        }
        // TCP blip, same server process: re-proof costs two Duplicates.
        assert_eq!(
            user.on_reconnect(),
            ReconnectOutcome::Reverify { first: 1, last: 2 }
        );
        drive(&mut user, &mut collector, 3);
        assert_eq!(user.gap_resent(), 0);
        assert_eq!(collector.accepted_batches(), 4);
        // Each synthetic batch carries `pages` page records plus one
        // speedtest; both re-offers were deduplicated whole.
        assert_eq!(collector.duplicates(), 2 * 4, "records re-offered, deduped");
    }

    #[test]
    fn double_crash_reproves_from_scratch_each_time() {
        let mut user = LoaderUser::new(2, 6);
        let mut collector = Collector::new();
        for seq in 1..=3u64 {
            let payload = synthetic_batch(2, seq, 2);
            let status = AckStatus::from(&collector.submit(&payload, SimTime::from_secs(seq)));
            user.on_kept(seq, status);
        }
        // Crash onto an empty dataset (generation 0 — nothing sealed).
        let mut empty = Collector::new();
        user.on_reconnect();
        for seq in 1..=3u64 {
            let payload = synthetic_batch(2, seq, 2);
            let status = AckStatus::from(&empty.submit(&payload, SimTime::from_secs(seq)));
            user.on_kept(seq, status);
        }
        assert_eq!(user.gap_resent(), 3);
        // Second crash, this time nothing was lost.
        user.on_reconnect();
        drive(&mut user, &mut empty, 2);
        assert_eq!(user.gap_resent(), 3, "no new losses, no new resends");
        assert_eq!(empty.accepted_batches(), 6);
        assert_eq!(user.reconnects(), 2);
    }

    #[test]
    fn fresh_start_reconnect_has_nothing_to_reverify() {
        let mut user = LoaderUser::new(1, 5);
        assert_eq!(user.on_reconnect(), ReconnectOutcome::FreshStart);
        assert_eq!(user.next_seq(), Some(1));
    }
}
