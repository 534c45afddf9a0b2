//! Contention management: the §2 timestamp-based "oldest transaction wins"
//! policy and the abort-the-requester policy of Figure 2(c).

/// How conflicts between a requester and transactional victims are resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictPolicy {
    /// The baseline policy (§2): the transaction with the smaller timestamp
    /// (earlier first-begin cycle) wins. A younger requester stalls behind
    /// an older victim; an older requester aborts younger victims. This is
    /// deadlock-free because transactions only ever wait on strictly older
    /// transactions. Non-transactional requesters always win.
    OldestWins,
    /// Figure 2(c)'s pure-eager behaviour: conflicts are resolved by
    /// aborting, never by stalling. The younger side aborts — the losing
    /// transaction "suffers repeated aborts until [the winner] commits",
    /// exactly the Figure 2(c) schedule. (Aborting the requester
    /// unconditionally would let two symmetric transactions re-establish
    /// each other's read bits forever — the classic dueling-upgrade
    /// livelock — which no real contention manager permits.)
    RequesterLoses,
}

/// A contention-manager verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Abort every conflicting victim; the requester proceeds.
    AbortVictims,
    /// The requester stalls and retries later.
    StallRequester,
    /// The requester's own transaction aborts.
    AbortRequester,
}

/// A transaction's age: its birth cycle (the cycle of its *first* begin,
/// surviving retries so the oldest transaction eventually wins) with the
/// core id as a deterministic tie-breaker.
pub(crate) type Age = (u64, usize);

/// Resolves a conflict between a requester and the victims whose ages
/// `victims` yields.
///
/// `requester` is `None` for non-transactional accesses, which always win
/// (they cannot be rolled back or indefinitely stalled). No victims at all
/// is [`Decision::AbortVictims`] vacuously: nobody aborts and the requester
/// proceeds.
pub(crate) fn decide(
    policy: ConflictPolicy,
    requester: Option<Age>,
    victims: impl IntoIterator<Item = Age>,
) -> Decision {
    let req = match requester {
        None => return Decision::AbortVictims,
        Some(age) => age,
    };
    let requester_oldest = victims.into_iter().all(|age| req < age);
    match policy {
        ConflictPolicy::RequesterLoses => {
            if requester_oldest {
                Decision::AbortVictims
            } else {
                Decision::AbortRequester
            }
        }
        ConflictPolicy::OldestWins => {
            if requester_oldest {
                Decision::AbortVictims
            } else {
                Decision::StallRequester
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const V0: Age = (100, 0);
    const V1: Age = (50, 1);

    #[test]
    fn non_tx_requester_always_wins() {
        for policy in [ConflictPolicy::OldestWins, ConflictPolicy::RequesterLoses] {
            assert_eq!(decide(policy, None, [V0, V1]), Decision::AbortVictims);
        }
    }

    #[test]
    fn oldest_wins_aborts_younger_victims() {
        // Requester born at 10: older than both victims.
        assert_eq!(
            decide(ConflictPolicy::OldestWins, Some((10, 2)), [V0, V1]),
            Decision::AbortVictims
        );
    }

    #[test]
    fn oldest_wins_stalls_younger_requester() {
        // Requester born at 70: younger than V1 (born 50).
        assert_eq!(
            decide(ConflictPolicy::OldestWins, Some((70, 2)), [V0, V1]),
            Decision::StallRequester
        );
    }

    #[test]
    fn ties_break_by_core_id() {
        // Same birth cycle: the smaller core id counts as older.
        assert_eq!(
            decide(ConflictPolicy::OldestWins, Some((50, 0)), [(50, 1)]),
            Decision::AbortVictims
        );
        assert_eq!(
            decide(ConflictPolicy::OldestWins, Some((50, 2)), [(50, 1)]),
            Decision::StallRequester
        );
    }

    #[test]
    fn requester_loses_aborts_younger_side() {
        // Younger requester: aborts itself.
        assert_eq!(
            decide(ConflictPolicy::RequesterLoses, Some((200, 0)), [V0]),
            Decision::AbortRequester
        );
        // Older requester: victims abort (never stalls under this policy).
        assert_eq!(
            decide(ConflictPolicy::RequesterLoses, Some((1, 0)), [V0]),
            Decision::AbortVictims
        );
    }
}
