//! The message alphabet of §4: email between ISPs, buy/sell/snapshot
//! exchanges between ISPs and the bank.
//!
//! Bank-bound and bank-issued messages carry [`SealedEnvelope`]s — the
//! paper's `NCR(B_b, …)` / `NCR(R_b, …)` — exactly as specified. Each such
//! message also carries an `audit` copy of the e-penny amount involved.
//! The audit field is **not part of the protocol**: no process reads it;
//! it exists so the conservation auditor in [`crate::invariants`] can count
//! e-pennies in flight without breaking the encryption it is auditing.

use crate::ids::IspId;
use zmail_crypto::{Attestation, SealedEnvelope};
use zmail_sim::workload::{MailKind, UserAddr};

/// One email message travelling between ISPs.
#[derive(Debug, Clone, PartialEq)]
pub struct EmailMsg {
    /// Sending user (`user s of isp[i]`).
    pub from: UserAddr,
    /// Receiving user (`user r of isp[j]`).
    pub to: UserAddr,
    /// Ground-truth class, for experiment accounting only.
    pub kind: MailKind,
    /// Whether one e-penny travels with the message (true exactly when the
    /// sending ISP is compliant and debited the sender).
    pub paid: bool,
    /// Detached payment attestation (`X-Zmail-Sig` on the SMTP mapping):
    /// the origin ISP's signature over the payment-relevant fields, with
    /// a single-use nonce. `None` in legacy unsigned deployments — and
    /// exactly what a signature-stripping adversary leaves behind.
    pub attestation: Option<Attestation>,
}

impl EmailMsg {
    /// E-pennies in flight inside this message.
    pub fn pennies_in_flight(&self) -> i64 {
        i64::from(self.paid)
    }
}

/// A message on the wire between two parties of the protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum NetMsg {
    /// `email(s, r)` from one ISP to another.
    Email(EmailMsg),
    /// `buy(NCR(Bb, buyvalue|ns1))` — ISP asks to buy e-pennies.
    Buy {
        /// The sealed `(buyvalue | nonce)` payload.
        envelope: SealedEnvelope,
        /// Auditor-only mirror of `buyvalue`.
        audit: i64,
    },
    /// `buyreply(NCR(Rb, nr|accepted))` — bank's answer.
    BuyReply {
        /// The sealed `(nonce | accepted)` payload.
        envelope: SealedEnvelope,
        /// Auditor-only mirror: e-pennies granted (0 when rejected).
        audit: i64,
        /// Auditor-only: this is a cached copy of an earlier reply,
        /// served because the ISP retransmitted an idempotent request id
        /// (see `ZmailConfig::idempotent_bank_ids`). The granted pennies
        /// were already issued — and, if the original reply was lost,
        /// counted as stranded — so a replayed copy carries no *new*
        /// value in flight.
        replayed: bool,
    },
    /// `sell(NCR(Bb, sellvalue|ns2))` — ISP asks to sell e-pennies back.
    Sell {
        /// The sealed `(sellvalue | nonce)` payload.
        envelope: SealedEnvelope,
        /// Auditor-only mirror of `sellvalue`.
        audit: i64,
    },
    /// `sellreply(NCR(Rb, nr))` — bank confirms the sale.
    SellReply {
        /// The sealed nonce payload.
        envelope: SealedEnvelope,
        /// Auditor-only mirror: e-pennies retired once the ISP applies it.
        audit: i64,
        /// Auditor-only: cached copy served for an idempotent
        /// retransmission; see [`NetMsg::BuyReply`].
        replayed: bool,
    },
    /// `request(NCR(Rb, seq))` — bank asks for a credit snapshot.
    SnapshotRequest {
        /// The sealed sequence number.
        envelope: SealedEnvelope,
    },
    /// `reply(NCR(Bb, credit))` — ISP returns its credit array.
    SnapshotReply {
        /// The responding ISP (transport-level addressing).
        from: IspId,
        /// The sealed credit array.
        envelope: SealedEnvelope,
    },
}

impl NetMsg {
    /// E-pennies considered "in flight" inside this message by the
    /// conservation auditor: +1 per paid email, +`buyvalue` in an accepted
    /// buy reply (issued by the bank, not yet in the ISP pool), and
    /// −`sellvalue` in a sell reply (retired by the bank, still counted in
    /// the ISP pool until the reply lands).
    pub fn pennies_in_flight(&self) -> i64 {
        match self {
            NetMsg::Email(email) => email.pennies_in_flight(),
            NetMsg::BuyReply { replayed: true, .. } | NetMsg::SellReply { replayed: true, .. } => 0,
            NetMsg::BuyReply { audit, .. } => *audit,
            NetMsg::SellReply { audit, .. } => -*audit,
            NetMsg::Buy { .. }
            | NetMsg::Sell { .. }
            | NetMsg::SnapshotRequest { .. }
            | NetMsg::SnapshotReply { .. } => 0,
        }
    }

    /// Short label for traces and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            NetMsg::Email(_) => "email",
            NetMsg::Buy { .. } => "buy",
            NetMsg::BuyReply { .. } => "buyreply",
            NetMsg::Sell { .. } => "sell",
            NetMsg::SellReply { .. } => "sellreply",
            NetMsg::SnapshotRequest { .. } => "request",
            NetMsg::SnapshotReply { .. } => "reply",
        }
    }
}

/// Serializes a `(value, nonce)` pair for sealing — the paper's
/// `buyvalue|ns1` concatenation.
pub fn encode_value_nonce(value: i64, nonce: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&value.to_le_bytes());
    out.extend_from_slice(&nonce.to_le_bytes());
    out
}

/// Parses a `(value, nonce)` pair sealed by [`encode_value_nonce`].
pub fn decode_value_nonce(bytes: &[u8]) -> Option<(i64, u64)> {
    if bytes.len() != 16 {
        return None;
    }
    let value = i64::from_le_bytes(bytes[..8].try_into().ok()?);
    let nonce = u64::from_le_bytes(bytes[8..].try_into().ok()?);
    Some((value, nonce))
}

/// Serializes a credit array for the snapshot reply.
pub fn encode_credit(credit: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(credit.len() * 8);
    for &c in credit {
        out.extend_from_slice(&c.to_le_bytes());
    }
    out
}

/// Parses a credit array sealed by [`encode_credit`].
pub fn decode_credit(bytes: &[u8]) -> Option<Vec<i64>> {
    if !bytes.len().is_multiple_of(8) {
        return None;
    }
    Some(
        bytes
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_nonce_roundtrip() {
        for (v, n) in [(0i64, 0u64), (500, 42), (-3, u64::MAX), (i64::MIN, 1)] {
            let bytes = encode_value_nonce(v, n);
            assert_eq!(decode_value_nonce(&bytes), Some((v, n)));
        }
    }

    #[test]
    fn value_nonce_rejects_bad_length() {
        assert_eq!(decode_value_nonce(&[0u8; 15]), None);
        assert_eq!(decode_value_nonce(&[0u8; 17]), None);
        assert_eq!(decode_value_nonce(&[]), None);
    }

    #[test]
    fn credit_roundtrip() {
        let credit = vec![0i64, 5, -5, i64::MAX, i64::MIN];
        assert_eq!(decode_credit(&encode_credit(&credit)), Some(credit));
        assert_eq!(decode_credit(&encode_credit(&[])), Some(vec![]));
    }

    #[test]
    fn credit_rejects_ragged_length() {
        assert_eq!(decode_credit(&[1, 2, 3]), None);
    }

    #[test]
    fn pennies_in_flight_accounting() {
        let paid = EmailMsg {
            from: UserAddr::new(0, 0),
            to: UserAddr::new(1, 0),
            kind: MailKind::Personal,
            paid: true,
            attestation: None,
        };
        let unpaid = EmailMsg {
            paid: false,
            ..paid.clone()
        };
        assert_eq!(NetMsg::Email(paid).pennies_in_flight(), 1);
        assert_eq!(NetMsg::Email(unpaid).pennies_in_flight(), 0);
    }

    #[test]
    fn labels_are_distinct_for_email_and_buy() {
        let email = NetMsg::Email(EmailMsg {
            from: UserAddr::new(0, 0),
            to: UserAddr::new(1, 0),
            kind: MailKind::Personal,
            paid: true,
            attestation: None,
        });
        assert_eq!(email.label(), "email");
    }
}
