//! RFC 821 command grammar: the subset Zmail deployment needs, plus the
//! `EHLO` greeting that announces the one extension used (RFC 2920
//! PIPELINING).

use crate::SmtpError;
use std::fmt;

/// An SMTP command, as sent by a client.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Command {
    /// `HELO <domain>` — identify the sending host.
    Helo(String),
    /// `EHLO <domain>` — identify the sending host and ask for the
    /// server's extensions.
    Ehlo(String),
    /// `MAIL FROM:<reverse-path>` — start a transaction.
    MailFrom(String),
    /// `RCPT TO:<forward-path>` — add a recipient.
    RcptTo(String),
    /// `DATA` — begin the message text.
    Data,
    /// `RSET` — abort the current transaction.
    Rset,
    /// `NOOP` — no operation.
    Noop,
    /// `QUIT` — close the session.
    Quit,
    /// `VRFY <string>` — verify an address (always soft-answered here).
    Vrfy(String),
}

impl Command {
    /// Parses one CRLF-stripped line into a command.
    ///
    /// Verbs are case-insensitive per RFC 821; paths keep their case.
    ///
    /// # Errors
    ///
    /// Returns [`SmtpError::Syntax`] when the line matches no known verb or
    /// a required argument is missing or malformed.
    pub fn parse(line: &str) -> Result<Command, SmtpError> {
        let trimmed = line.trim_end_matches(['\r', '\n']);
        let upper = trimmed.to_ascii_uppercase();
        let syntax = || SmtpError::Syntax(trimmed.to_string());

        if let Some(verb @ ("HELO" | "EHLO")) = upper.get(..4) {
            let domain = trimmed[4..].trim();
            if domain.is_empty() {
                return Err(syntax());
            }
            let domain = domain.to_string();
            return Ok(if verb == "HELO" {
                Command::Helo(domain)
            } else {
                Command::Ehlo(domain)
            });
        }
        if upper.starts_with("MAIL FROM:") {
            let path = parse_path(&trimmed["MAIL FROM:".len()..]).ok_or_else(syntax)?;
            return Ok(Command::MailFrom(path));
        }
        if upper.starts_with("RCPT TO:") {
            let path = parse_path(&trimmed["RCPT TO:".len()..]).ok_or_else(syntax)?;
            if path.is_empty() {
                return Err(syntax());
            }
            return Ok(Command::RcptTo(path));
        }
        match upper.as_str() {
            "DATA" => return Ok(Command::Data),
            "RSET" => return Ok(Command::Rset),
            "NOOP" => return Ok(Command::Noop),
            "QUIT" => return Ok(Command::Quit),
            _ => {}
        }
        if let Some(rest) = upper.strip_prefix("VRFY") {
            let arg = trimmed[trimmed.len() - rest.len()..].trim();
            if arg.is_empty() {
                return Err(syntax());
            }
            return Ok(Command::Vrfy(arg.to_string()));
        }
        Err(syntax())
    }

    /// The command's verb, for diagnostics.
    pub fn verb(&self) -> &'static str {
        match self {
            Command::Helo(_) => "HELO",
            Command::Ehlo(_) => "EHLO",
            Command::MailFrom(_) => "MAIL",
            Command::RcptTo(_) => "RCPT",
            Command::Data => "DATA",
            Command::Rset => "RSET",
            Command::Noop => "NOOP",
            Command::Quit => "QUIT",
            Command::Vrfy(_) => "VRFY",
        }
    }
}

/// Extracts the address from `<path>` or bare-path forms.
///
/// `MAIL FROM:<>` (the null reverse-path used by delivery notifications) is
/// accepted and yields an empty string.
fn parse_path(raw: &str) -> Option<String> {
    let raw = raw.trim();
    let inner = if let Some(stripped) = raw.strip_prefix('<') {
        stripped.strip_suffix('>')?
    } else {
        // A bare path must be nonempty; only the bracketed form `<>` may
        // denote the null reverse-path.
        if raw.is_empty() {
            return None;
        }
        raw
    };
    if inner.contains(['<', '>', ' ']) {
        return None;
    }
    Some(inner.to_string())
}

impl fmt::Display for Command {
    /// Serializes in canonical wire form **without** the trailing CRLF.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Command::Helo(domain) => write!(f, "HELO {domain}"),
            Command::Ehlo(domain) => write!(f, "EHLO {domain}"),
            Command::MailFrom(path) => write!(f, "MAIL FROM:<{path}>"),
            Command::RcptTo(path) => write!(f, "RCPT TO:<{path}>"),
            Command::Data => write!(f, "DATA"),
            Command::Rset => write!(f, "RSET"),
            Command::Noop => write!(f, "NOOP"),
            Command::Quit => write!(f, "QUIT"),
            Command::Vrfy(s) => write!(f, "VRFY {s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_canonical_forms() {
        assert_eq!(
            Command::parse("HELO relay.example.org").unwrap(),
            Command::Helo("relay.example.org".into())
        );
        assert_eq!(Command::parse("EHLO x").unwrap(), Command::Ehlo("x".into()));
        assert_eq!(
            Command::parse("MAIL FROM:<alice@a.example>").unwrap(),
            Command::MailFrom("alice@a.example".into())
        );
        assert_eq!(
            Command::parse("RCPT TO:<bob@b.example>").unwrap(),
            Command::RcptTo("bob@b.example".into())
        );
        assert_eq!(Command::parse("DATA").unwrap(), Command::Data);
        assert_eq!(Command::parse("QUIT").unwrap(), Command::Quit);
        assert_eq!(Command::parse("RSET").unwrap(), Command::Rset);
        assert_eq!(Command::parse("NOOP").unwrap(), Command::Noop);
        assert_eq!(
            Command::parse("VRFY postmaster").unwrap(),
            Command::Vrfy("postmaster".into())
        );
    }

    #[test]
    fn verbs_are_case_insensitive_paths_keep_case() {
        assert_eq!(
            Command::parse("mail from:<Alice@A.Example>").unwrap(),
            Command::MailFrom("Alice@A.Example".into())
        );
        assert_eq!(Command::parse("data").unwrap(), Command::Data);
    }

    #[test]
    fn null_reverse_path_accepted() {
        assert_eq!(
            Command::parse("MAIL FROM:<>").unwrap(),
            Command::MailFrom(String::new())
        );
    }

    #[test]
    fn empty_rcpt_rejected() {
        assert!(Command::parse("RCPT TO:<>").is_err());
    }

    #[test]
    fn bare_path_without_brackets_accepted() {
        assert_eq!(
            Command::parse("MAIL FROM:alice@a.example").unwrap(),
            Command::MailFrom("alice@a.example".into())
        );
    }

    #[test]
    fn malformed_lines_rejected() {
        for bad in [
            "",
            "MAIL FROM:",
            "MAIL FROM:<unclosed",
            "RCPT TO:<a b>",
            "HELO",
            "EHLO",
            "SEND FROM:<x>",
            "VRFY",
        ] {
            assert!(Command::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn crlf_is_stripped() {
        assert_eq!(Command::parse("QUIT\r\n").unwrap(), Command::Quit);
    }

    #[test]
    fn display_roundtrips_through_parse() {
        let commands = [
            Command::Helo("h.example".into()),
            Command::Ehlo("h.example".into()),
            Command::MailFrom("a@b.c".into()),
            Command::RcptTo("d@e.f".into()),
            Command::Data,
            Command::Rset,
            Command::Noop,
            Command::Quit,
            Command::Vrfy("who".into()),
        ];
        for cmd in commands {
            let wire = cmd.to_string();
            assert_eq!(Command::parse(&wire).unwrap(), cmd, "wire {wire:?}");
        }
    }

    #[test]
    fn verb_names() {
        assert_eq!(Command::Data.verb(), "DATA");
        assert_eq!(Command::MailFrom(String::new()).verb(), "MAIL");
    }
}
