//! The flat clause arena.
//!
//! Every clause lives in one `Vec<u32>`: a fixed header followed by
//! the literal codes inline. A [`ClauseRef`] is the offset of a
//! clause's header, so watchers, reasons and the learnt list are plain
//! `u32`s, and walking a clause touches one contiguous run of memory.
//!
//! Header words, in order:
//!
//! | word | content |
//! |---|---|
//! | 0 | LBD (learnt clauses) |
//! | 1 | proof [`ClauseId`] (0 when proof logging is off) |
//! | 2–3 | activity, the `f64` bit pattern split low/high |
//! | 4 | flags: learnt, deleted, tier (2 bits), use credit (2 bits) |
//! | 5 | number of literals |
//!
//! Deleting a clause only flags it and counts its words as dead;
//! [`ClauseArena::relocate`] copies the live clauses, in their current
//! order, into a fresh arena. Order preservation matters: offsets are
//! the deterministic tie-break of clause-database reduction, so
//! compaction must never reorder two clauses.

use step_cnf::Lit;

use crate::proof::ClauseId;

/// Offset of a clause header in its [`ClauseArena`].
pub(crate) type ClauseRef = u32;

const H_LBD: usize = 0;
const H_PROOF: usize = 1;
const H_ACT: usize = 2;
const H_FLAGS: usize = 4;
const H_LEN: usize = 5;
/// Words of every clause header.
const HEADER: usize = 6;

const F_LEARNT: u32 = 1;
const F_DELETED: u32 = 1 << 1;
const TIER_SHIFT: u32 = 2;
const USED_SHIFT: u32 = 4;
const FIELD_MASK: u32 = 0b11;

#[derive(Debug, Default)]
pub(crate) struct ClauseArena {
    words: Vec<u32>,
    /// Words of deleted clauses still occupying the arena.
    wasted: usize,
}

impl ClauseArena {
    /// Appends a clause (tier 0, no use credit, zero activity and LBD)
    /// and returns its reference.
    pub(crate) fn alloc(&mut self, lits: &[Lit], learnt: bool, proof_id: ClauseId) -> ClauseRef {
        let cref = self.words.len();
        assert!(
            cref + HEADER + lits.len() < ClauseRef::MAX as usize,
            "clause arena exceeds u32 offsets"
        );
        let flags = if learnt { F_LEARNT } else { 0 };
        self.words
            .extend_from_slice(&[0, proof_id, 0, 0, flags, lits.len() as u32]);
        self.words.extend(lits.iter().map(|l| l.code()));
        cref as ClauseRef
    }

    /// Total words in use, dead clauses included.
    pub(crate) fn words(&self) -> usize {
        self.words.len()
    }

    /// Words held by deleted clauses.
    pub(crate) fn wasted(&self) -> usize {
        self.wasted
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The reference of the clause after `c` (or [`ClauseArena::words`]
    /// past the last one): clauses are walked in allocation order with
    /// `while c < end { ...; c = arena.next(c) }`.
    #[inline]
    pub(crate) fn next(&self, c: ClauseRef) -> ClauseRef {
        c + (HEADER + self.len(c)) as ClauseRef
    }

    #[inline]
    pub(crate) fn len(&self, c: ClauseRef) -> usize {
        self.words[c as usize + H_LEN] as usize
    }

    #[inline]
    pub(crate) fn lit(&self, c: ClauseRef, i: usize) -> Lit {
        Lit::from_code(self.words[c as usize + HEADER + i])
    }

    /// The literals of `c`, in their current (watch) order.
    #[inline]
    pub(crate) fn lits(&self, c: ClauseRef) -> impl Iterator<Item = Lit> + '_ {
        let start = c as usize + HEADER;
        self.words[start..start + self.len(c)]
            .iter()
            .map(|&w| Lit::from_code(w))
    }

    /// The literal codes of `c`, for in-place reordering.
    #[inline]
    pub(crate) fn lit_codes_mut(&mut self, c: ClauseRef) -> &mut [u32] {
        let start = c as usize + HEADER;
        let len = self.len(c);
        &mut self.words[start..start + len]
    }

    #[inline]
    fn flags(&self, c: ClauseRef) -> u32 {
        self.words[c as usize + H_FLAGS]
    }

    #[inline]
    pub(crate) fn is_learnt(&self, c: ClauseRef) -> bool {
        self.flags(c) & F_LEARNT != 0
    }

    #[inline]
    pub(crate) fn is_deleted(&self, c: ClauseRef) -> bool {
        self.flags(c) & F_DELETED != 0
    }

    /// Flags `c` deleted and counts its words as dead.
    pub(crate) fn delete(&mut self, c: ClauseRef) {
        debug_assert!(!self.is_deleted(c));
        self.words[c as usize + H_FLAGS] |= F_DELETED;
        self.wasted += HEADER + self.len(c);
    }

    #[inline]
    pub(crate) fn tier(&self, c: ClauseRef) -> u8 {
        ((self.flags(c) >> TIER_SHIFT) & FIELD_MASK) as u8
    }

    #[inline]
    pub(crate) fn set_tier(&mut self, c: ClauseRef, tier: u8) {
        let f = &mut self.words[c as usize + H_FLAGS];
        *f = (*f & !(FIELD_MASK << TIER_SHIFT)) | ((tier as u32 & FIELD_MASK) << TIER_SHIFT);
    }

    #[inline]
    pub(crate) fn used(&self, c: ClauseRef) -> u8 {
        ((self.flags(c) >> USED_SHIFT) & FIELD_MASK) as u8
    }

    #[inline]
    pub(crate) fn set_used(&mut self, c: ClauseRef, used: u8) {
        let f = &mut self.words[c as usize + H_FLAGS];
        *f = (*f & !(FIELD_MASK << USED_SHIFT)) | ((used as u32 & FIELD_MASK) << USED_SHIFT);
    }

    #[inline]
    pub(crate) fn lbd(&self, c: ClauseRef) -> u32 {
        self.words[c as usize + H_LBD]
    }

    #[inline]
    pub(crate) fn set_lbd(&mut self, c: ClauseRef, lbd: u32) {
        self.words[c as usize + H_LBD] = lbd;
    }

    #[inline]
    pub(crate) fn proof_id(&self, c: ClauseRef) -> ClauseId {
        self.words[c as usize + H_PROOF]
    }

    /// The clause activity, stored bit-exactly.
    #[inline]
    pub(crate) fn activity(&self, c: ClauseRef) -> f64 {
        let i = c as usize + H_ACT;
        f64::from_bits(self.words[i] as u64 | (self.words[i + 1] as u64) << 32)
    }

    #[inline]
    pub(crate) fn set_activity(&mut self, c: ClauseRef, a: f64) {
        let i = c as usize + H_ACT;
        let bits = a.to_bits();
        self.words[i] = bits as u32;
        self.words[i + 1] = (bits >> 32) as u32;
    }

    /// Whether `c` contains `l`.
    pub(crate) fn contains(&self, c: ClauseRef, l: Lit) -> bool {
        let start = c as usize + HEADER;
        self.words[start..start + self.len(c)].contains(&l.code())
    }

    /// Copies every live clause, in arena order, into a fresh arena
    /// sized to fit, and leaves each old header holding its clause's
    /// new reference (read back with [`ClauseArena::forward`] until the
    /// old arena is dropped).
    pub(crate) fn relocate(&mut self) -> ClauseArena {
        let mut to = ClauseArena {
            words: Vec::with_capacity(self.words.len() - self.wasted),
            wasted: 0,
        };
        let (mut c, end) = (0, self.words.len() as ClauseRef);
        while c < end {
            let next = self.next(c);
            if !self.is_deleted(c) {
                let new = to.words.len() as ClauseRef;
                to.words
                    .extend_from_slice(&self.words[c as usize..next as usize]);
                self.words[c as usize + H_LBD] = new;
            }
            c = next;
        }
        to
    }

    /// The new reference of live clause `c` after
    /// [`ClauseArena::relocate`].
    #[inline]
    pub(crate) fn forward(&self, c: ClauseRef) -> ClauseRef {
        debug_assert!(!self.is_deleted(c), "dead clause has no new home");
        self.words[c as usize + H_LBD]
    }
}
