//! Shadow claim map for [`SharedMut`](crate::SharedMut) writes — the
//! `race-check` debug feature.
//!
//! The parallel kernels rely on a discipline no type checks: during one
//! step of a pass over the level grid, every index written through a
//! `SharedMut` view belongs to exactly one (step, chunk) owner. This module makes that
//! discipline *observable*: while a pass context is entered on a thread,
//! every `set`/`add` through any `SharedMut` records `(slice address,
//! index) -> (pass, owner)` in a global claim map and **panics** the moment
//! two different owners of the same pass write one index.
//!
//! The map never blocks writes outside a context (single-threaded code and
//! tests run untouched), and claims from earlier passes are invalidated by
//! pass-id mismatch instead of a global clear, so the map needs no
//! synchronization with pass boundaries.
//!
//! Everything here compiles only under `--features race-check`; the
//! production build keeps `SharedMut` free of any bookkeeping.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Monotonic pass-id source: every checked parallel pass gets a fresh id,
/// so stale claims from earlier passes can never collide with it.
static NEXT_PASS: AtomicU64 = AtomicU64::new(1);

/// `(slice base address, index)` — the identity of one written slot.
type Slot = (usize, usize);

/// `(pass, owner)` — who claimed a slot, and in which pass.
type Claim = (u64, u64);

/// Slot -> claim for every contextful write. Keyed by address so
/// independent engines (or a slice reallocated between passes) cannot
/// alias.
fn claims() -> &'static Mutex<HashMap<Slot, Claim>> {
    static CLAIMS: OnceLock<Mutex<HashMap<Slot, Claim>>> = OnceLock::new();
    CLAIMS.get_or_init(|| Mutex::new(HashMap::new()))
}

thread_local! {
    /// The `(pass, owner)` this thread's writes are attributed to, if any.
    static CONTEXT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

/// Allocates a fresh pass id. Call once per parallel pass (one step of a
/// leveled sweep, or one flat sweep), before entering any chunk context.
pub fn begin_pass() -> u64 {
    NEXT_PASS.fetch_add(1, Ordering::Relaxed)
}

/// Allocates a contiguous block of `n` pass ids and returns the first.
/// A leveled sweep claims one id per step up front (`base + step`), so
/// every worker derives the same id for a step without synchronizing —
/// and writes to one index from *different* steps (settled sequentially
/// by the barriers) never collide.
pub fn begin_passes(n: u64) -> u64 {
    NEXT_PASS.fetch_add(n.max(1), Ordering::Relaxed)
}

/// Clears the thread's context when the chunk body finishes (or unwinds).
pub struct ContextGuard {
    prev: Option<(u64, u64)>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT.with(|c| c.set(self.prev));
    }
}

/// Enters a `(pass, owner)` context on this thread: until the returned
/// guard drops, every `SharedMut` write on this thread is claimed for
/// `owner`. Owners encode `(step, chunk)`; see
/// [`owner_id`].
pub fn enter(pass: u64, owner: u64) -> ContextGuard {
    let prev = CONTEXT.with(|c| c.replace(Some((pass, owner))));
    ContextGuard { prev }
}

/// Packs a (step, chunk) coordinate into an owner id. Flat (unleveled)
/// passes use `step = u32::MAX`.
pub fn owner_id(step: u32, chunk: u32) -> u64 {
    (u64::from(step) << 32) | u64::from(chunk)
}

/// Records a write of `slice[index]` by the current context, panicking on
/// an overlap: a prior claim of the same index by a *different* owner of
/// the *same* pass. Outside a context this is a no-op.
///
/// Called by `SharedMut::set`/`add`; not meant to be called directly.
#[inline]
pub fn claim_write(slice: usize, index: usize) {
    let Some((pass, owner)) = CONTEXT.with(|c| c.get()) else {
        return;
    };
    let mut map = claims().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((prev_pass, prev_owner)) = map.insert((slice, index), (pass, owner)) {
        if prev_pass == pass && prev_owner != owner {
            drop(map);
            let (pl, pc) = ((prev_owner >> 32) as u32, prev_owner as u32);
            let (ol, oc) = ((owner >> 32) as u32, owner as u32);
            panic!(
                "race-check: overlapping write to index {index} of slice {slice:#x} in pass \
                 {pass}: chunk (step {pl}, chunk {pc}) and chunk (step {ol}, chunk {oc}) both \
                 wrote it — the level partition is violated"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_owners_pass_and_overlap_panics() {
        let pass = begin_pass();
        {
            let _g = enter(pass, owner_id(0, 0));
            claim_write(0x1000, 3);
            claim_write(0x1000, 4);
            // Same owner re-writing its own index is fine.
            claim_write(0x1000, 3);
        }
        {
            let _g = enter(pass, owner_id(0, 1));
            claim_write(0x1000, 5);
            // A different slice address never collides.
            claim_write(0x2000, 3);
        }
        let overlap = std::panic::catch_unwind(|| {
            let _g = enter(pass, owner_id(0, 1));
            claim_write(0x1000, 4);
        });
        assert!(overlap.is_err(), "cross-chunk overlap must panic");
    }

    #[test]
    fn stale_claims_from_earlier_passes_do_not_collide() {
        let first = begin_pass();
        {
            let _g = enter(first, owner_id(0, 0));
            claim_write(0x3000, 7);
        }
        let second = begin_pass();
        let _g = enter(second, owner_id(0, 1));
        // Same index, different pass: the level partition only holds
        // within a pass, so this must be accepted.
        claim_write(0x3000, 7);
    }

    #[test]
    fn writes_outside_a_context_are_ignored() {
        claim_write(0x4000, 0);
        claim_write(0x4000, 0);
    }
}
