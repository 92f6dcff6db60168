//! Delegation tokens with expiry on the namenode clock.
//!
//! YARN-2790 (discussed under Finding 12) is a CSI failure in which YARN
//! renews an HDFS delegation token far from the point of use, so the token
//! expires before the downstream operation consumes it. This module gives
//! the namenode real token lifecycle semantics — issue, renew (bounded by a
//! max lifetime), cancel, verify — so that upstreams exhibit exactly that
//! failure when they schedule renewal poorly.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Opaque token identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TokenId(pub u64);

/// A delegation token as returned to clients.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DelegationToken {
    /// Identifier.
    pub id: TokenId,
    /// Owner the token authenticates.
    pub owner: String,
    /// Expiry instant (namenode clock, ms).
    pub expires_at: u64,
    /// Hard upper bound for renewals (namenode clock, ms).
    pub max_lifetime_at: u64,
}

impl DelegationToken {
    /// Whether the token is expired at `now`.
    pub fn is_expired(&self, now: u64) -> bool {
        now >= self.expires_at
    }
}

/// Server-side token registry.
///
/// Tokens live in an ordered map keyed by raw id, so the map iterates in
/// issue order; [`TokenRegistry::expired`] re-sorts by
/// `(expires_at, id)`, clock order first.
#[derive(Debug, Default, Clone)]
pub struct TokenRegistry {
    next_id: u64,
    tokens: BTreeMap<u64, DelegationToken>,
}

/// Outcome of a token verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenCheck {
    /// The token is valid.
    Valid,
    /// The token has expired.
    Expired {
        /// When it expired.
        expired_at: u64,
    },
    /// The token was cancelled or never issued.
    Unknown,
}

impl TokenRegistry {
    /// Issues a token valid for `renew_interval_ms` and renewable up to
    /// `max_lifetime_ms` from `now`.
    pub fn issue(
        &mut self,
        owner: &str,
        now: u64,
        renew_interval_ms: u64,
        max_lifetime_ms: u64,
    ) -> DelegationToken {
        self.next_id += 1;
        let token = DelegationToken {
            id: TokenId(self.next_id),
            owner: owner.to_string(),
            expires_at: now + renew_interval_ms.min(max_lifetime_ms),
            max_lifetime_at: now + max_lifetime_ms,
        };
        self.tokens.insert(token.id.0, token.clone());
        token
    }

    /// Renews a token; extends expiry by `renew_interval_ms` capped by the
    /// max lifetime. Returns the new expiry, or `None` if the token is
    /// unknown or already past its max lifetime.
    pub fn renew(&mut self, id: TokenId, now: u64, renew_interval_ms: u64) -> Option<u64> {
        let token = self.tokens.get_mut(&id.0)?;
        if now >= token.max_lifetime_at {
            return None;
        }
        token.expires_at = (now + renew_interval_ms).min(token.max_lifetime_at);
        Some(token.expires_at)
    }

    /// Cancels a token.
    pub fn cancel(&mut self, id: TokenId) -> bool {
        self.tokens.remove(&id.0).is_some()
    }

    /// Verifies a token at `now`.
    pub fn check(&self, id: TokenId, now: u64) -> TokenCheck {
        match self.tokens.get(&id.0) {
            None => TokenCheck::Unknown,
            Some(t) if t.is_expired(now) => TokenCheck::Expired {
                expired_at: t.expires_at,
            },
            Some(_) => TokenCheck::Valid,
        }
    }

    /// A snapshot of a token's current server-side state.
    pub fn get(&self, id: TokenId) -> Option<&DelegationToken> {
        self.tokens.get(&id.0)
    }

    /// Number of live (issued, uncancelled) tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether no tokens are outstanding.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// All tokens expired at `now`, in clock order: sorted by
    /// `(expires_at, id)` so ties on the expiry instant break by issue
    /// order.
    pub fn expired(&self, now: u64) -> Vec<DelegationToken> {
        let mut out: Vec<DelegationToken> = self
            .tokens
            .values()
            .filter(|t| t.is_expired(now))
            .cloned()
            .collect();
        out.sort_by_key(|t| (t.expires_at, t.id.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_and_verify() {
        let mut reg = TokenRegistry::default();
        let t = reg.issue("spark", 1000, 500, 10_000);
        assert_eq!(t.expires_at, 1500);
        assert_eq!(reg.check(t.id, 1400), TokenCheck::Valid);
        assert_eq!(
            reg.check(t.id, 1500),
            TokenCheck::Expired { expired_at: 1500 }
        );
        assert_eq!(reg.check(TokenId(999), 0), TokenCheck::Unknown);
    }

    #[test]
    fn renewal_extends_up_to_max_lifetime() {
        let mut reg = TokenRegistry::default();
        let t = reg.issue("yarn", 0, 100, 250);
        assert_eq!(reg.renew(t.id, 90, 100), Some(190));
        // Renewal near the cap clamps to max lifetime.
        assert_eq!(reg.renew(t.id, 180, 100), Some(250));
        // Past max lifetime, renewal fails.
        assert_eq!(reg.renew(t.id, 250, 100), None);
    }

    #[test]
    fn an_expired_token_can_still_be_renewed_before_max_lifetime() {
        // This matches HDFS semantics: expiry gates *use*, max lifetime
        // gates *renewal*.
        let mut reg = TokenRegistry::default();
        let t = reg.issue("yarn", 0, 100, 1000);
        assert_eq!(
            reg.check(t.id, 500),
            TokenCheck::Expired { expired_at: 100 }
        );
        assert_eq!(reg.renew(t.id, 500, 100), Some(600));
        assert_eq!(reg.check(t.id, 550), TokenCheck::Valid);
    }

    #[test]
    fn cancel_removes_token() {
        let mut reg = TokenRegistry::default();
        let t = reg.issue("hive", 0, 100, 100);
        assert!(reg.cancel(t.id));
        assert!(!reg.cancel(t.id));
        assert_eq!(reg.check(t.id, 10), TokenCheck::Unknown);
    }

    #[test]
    fn issue_clamps_first_expiry_to_max_lifetime() {
        let mut reg = TokenRegistry::default();
        let t = reg.issue("x", 0, 1000, 300);
        assert_eq!(t.expires_at, 300);
    }

    #[test]
    fn expiry_order_is_deterministic_clock_order() {
        // Tokens expire in clock order, with ties broken by issue order.
        let build = || {
            let mut reg = TokenRegistry::default();
            for (now, interval) in [(0, 300), (0, 100), (50, 50), (0, 100), (10, 500)] {
                reg.issue("owner", now, interval, 10_000);
            }
            reg
        };
        let reg = build();
        assert_eq!(reg.len(), 5);
        let order: Vec<(u64, u64)> = reg
            .expired(1_000)
            .iter()
            .map(|t| (t.expires_at, t.id.0))
            .collect();
        // expires_at: id1=300, id2=100, id3=100, id4=100, id5=510.
        assert_eq!(
            order,
            vec![(100, 2), (100, 3), (100, 4), (300, 1), (510, 5)]
        );
        // Identical across independently built registries and clones.
        assert_eq!(build().expired(1_000), reg.expired(1_000));
        assert_eq!(reg.clone().expired(1_000), reg.expired(1_000));
        // A mid-list clock only reveals the prefix, in the same order.
        let partial: Vec<u64> = reg.expired(200).iter().map(|t| t.id.0).collect();
        assert_eq!(partial, vec![2, 3, 4]);
        // Unexpired registries report nothing.
        assert!(reg.expired(0).is_empty());
    }
}
