//! RFC 821 reply codes and reply lines.

use crate::SmtpError;
use std::fmt;

/// The reply codes used by this substrate (an RFC 821 subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReplyCode {
    /// 220 — service ready.
    ServiceReady,
    /// 221 — service closing transmission channel.
    Closing,
    /// 250 — requested action okay, completed.
    Ok,
    /// 252 — cannot VRFY user, but will accept message.
    CannotVrfy,
    /// 354 — start mail input; end with `<CRLF>.<CRLF>`.
    StartMailInput,
    /// 421 — service not available.
    ServiceNotAvailable,
    /// 450 — mailbox unavailable (transient).
    MailboxBusy,
    /// 452 — insufficient system storage (transient). Used by the Zmail
    /// layer to shed individual messages when the admission queue in front
    /// of the durable ledger path is full: the client should retry later.
    InsufficientStorage,
    /// 500 — syntax error, command unrecognized.
    SyntaxError,
    /// 501 — syntax error in parameters.
    ParamSyntaxError,
    /// 503 — bad sequence of commands.
    BadSequence,
    /// 550 — mailbox unavailable (permanent).
    MailboxUnavailable,
    /// 552 — exceeded storage allocation. Used by the Zmail layer to bounce
    /// mail when the sender's e-penny balance or daily limit is exhausted.
    ExceededAllocation,
}

impl ReplyCode {
    /// The three-digit numeric code.
    pub fn code(self) -> u16 {
        match self {
            ReplyCode::ServiceReady => 220,
            ReplyCode::Closing => 221,
            ReplyCode::Ok => 250,
            ReplyCode::CannotVrfy => 252,
            ReplyCode::StartMailInput => 354,
            ReplyCode::ServiceNotAvailable => 421,
            ReplyCode::MailboxBusy => 450,
            ReplyCode::InsufficientStorage => 452,
            ReplyCode::SyntaxError => 500,
            ReplyCode::ParamSyntaxError => 501,
            ReplyCode::BadSequence => 503,
            ReplyCode::MailboxUnavailable => 550,
            ReplyCode::ExceededAllocation => 552,
        }
    }

    /// Parses a numeric code.
    pub fn from_code(code: u16) -> Option<ReplyCode> {
        Some(match code {
            220 => ReplyCode::ServiceReady,
            221 => ReplyCode::Closing,
            250 => ReplyCode::Ok,
            252 => ReplyCode::CannotVrfy,
            354 => ReplyCode::StartMailInput,
            421 => ReplyCode::ServiceNotAvailable,
            450 => ReplyCode::MailboxBusy,
            452 => ReplyCode::InsufficientStorage,
            500 => ReplyCode::SyntaxError,
            501 => ReplyCode::ParamSyntaxError,
            503 => ReplyCode::BadSequence,
            550 => ReplyCode::MailboxUnavailable,
            552 => ReplyCode::ExceededAllocation,
            _ => return None,
        })
    }

    /// Whether the code is a 2xx/3xx success-or-continue code.
    pub fn is_positive(self) -> bool {
        self.code() < 400
    }
}

/// A full reply: code plus human-readable text.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Reply {
    /// The reply code.
    pub code: ReplyCode,
    /// The text after the code. A multi-line reply read by
    /// [`Client`](crate::Client) joins its lines' texts with `\n`.
    pub text: String,
}

impl Reply {
    /// Creates a reply.
    pub fn new(code: ReplyCode, text: impl Into<String>) -> Self {
        Reply {
            code,
            text: text.into(),
        }
    }

    /// Parses one CRLF-stripped reply line (`250 ok`).
    ///
    /// # Errors
    ///
    /// Returns [`SmtpError::Syntax`] if the line lacks a known 3-digit code.
    pub fn parse(line: &str) -> Result<Reply, SmtpError> {
        let trimmed = line.trim_end_matches(['\r', '\n']);
        let syntax = || SmtpError::Syntax(trimmed.to_string());
        // split_at would panic if byte 3 falls inside a multi-byte char
        // (possible on garbled wire input), so use the checked form.
        let (digits, rest) = trimmed.split_at_checked(3).ok_or_else(syntax)?;
        let number: u16 = digits.parse().map_err(|_| syntax())?;
        let code = ReplyCode::from_code(number).ok_or_else(syntax)?;
        let text = rest.strip_prefix([' ', '-']).unwrap_or(rest).to_string();
        Ok(Reply { code, text })
    }

    /// Whether this reply indicates success or continuation.
    pub fn is_positive(&self) -> bool {
        self.code.is_positive()
    }
}

impl fmt::Display for Reply {
    /// Serializes in wire form **without** the trailing CRLF.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code.code(), self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip() {
        for code in [
            ReplyCode::ServiceReady,
            ReplyCode::Closing,
            ReplyCode::Ok,
            ReplyCode::CannotVrfy,
            ReplyCode::StartMailInput,
            ReplyCode::ServiceNotAvailable,
            ReplyCode::MailboxBusy,
            ReplyCode::InsufficientStorage,
            ReplyCode::SyntaxError,
            ReplyCode::ParamSyntaxError,
            ReplyCode::BadSequence,
            ReplyCode::MailboxUnavailable,
            ReplyCode::ExceededAllocation,
        ] {
            assert_eq!(ReplyCode::from_code(code.code()), Some(code));
        }
        assert_eq!(ReplyCode::from_code(299), None);
    }

    #[test]
    fn positivity_split() {
        assert!(ReplyCode::Ok.is_positive());
        assert!(ReplyCode::StartMailInput.is_positive());
        assert!(!ReplyCode::MailboxUnavailable.is_positive());
        assert!(!ReplyCode::ExceededAllocation.is_positive());
        assert!(!ReplyCode::InsufficientStorage.is_positive());
    }

    #[test]
    fn reply_parse_and_display() {
        let r = Reply::parse("250 ok, queued").unwrap();
        assert_eq!(r.code, ReplyCode::Ok);
        assert_eq!(r.text, "ok, queued");
        assert_eq!(r.to_string(), "250 ok, queued");
    }

    #[test]
    fn reply_parse_tolerates_crlf_and_dash() {
        assert_eq!(Reply::parse("354-go ahead\r\n").unwrap().text, "go ahead");
    }

    #[test]
    fn reply_parse_rejects_garbage() {
        for bad in [
            "",
            "25",
            "abc hello",
            "999 unknown",
            "2\u{30AB}5 x",
            "\u{FFFD}\u{FFFD}",
        ] {
            assert!(Reply::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn reply_with_empty_text_parses() {
        let r = Reply::parse("250").unwrap();
        assert_eq!(r.code, ReplyCode::Ok);
        assert_eq!(r.text, "");
    }
}
