//! Delegation tokens with expiry on the namenode clock.
//!
//! YARN-2790 (discussed under Finding 12) is a CSI failure in which YARN
//! renews an HDFS delegation token far from the point of use, so the token
//! expires before the downstream operation consumes it. This module gives
//! the namenode the token lifecycle that failure needs — issue, renew
//! (bounded by a max lifetime), verify — so that upstreams exhibit exactly
//! that failure when they schedule renewal poorly.

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

/// Server-side token registry, keyed by raw id.
#[derive(Debug, Default, Clone)]
pub(crate) struct TokenRegistry {
    next_id: u64,
    tokens: BTreeMap<u64, DelegationToken>,
}

/// Outcome of a token verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TokenCheck {
    /// The token is valid.
    Valid,
    /// The token has expired.
    Expired {
        /// When it expired.
        expired_at: u64,
    },
    /// The token was never issued.
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

    /// Verifies a token at `now`.
    pub fn check(&self, id: TokenId, now: u64) -> TokenCheck {
        match self.tokens.get(&id.0) {
            None => TokenCheck::Unknown,
            Some(t) if now >= t.expires_at => TokenCheck::Expired {
                expired_at: t.expires_at,
            },
            Some(_) => TokenCheck::Valid,
        }
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
    fn issue_clamps_first_expiry_to_max_lifetime() {
        let mut reg = TokenRegistry::default();
        let t = reg.issue("x", 0, 1000, 300);
        assert_eq!(t.expires_at, 300);
    }
}
