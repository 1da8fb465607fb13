//! Property tests for the SMTP substrate: the parsers never panic on
//! byte noise, render→parse is the identity on the command and reply
//! grammars, and a full server session survives a deterministically
//! faulty line transport.

use proptest::prelude::*;
use zmail_fault::LineFaults;
use zmail_sim::Sampler;
use zmail_smtp::{
    CollectSink, Command, Connection, FaultyConnection, MemoryTransport, Reply, ReplyCode,
    SmtpServer,
};

const CODES: [ReplyCode; 12] = [
    ReplyCode::ServiceReady,
    ReplyCode::Closing,
    ReplyCode::Ok,
    ReplyCode::CannotVrfy,
    ReplyCode::StartMailInput,
    ReplyCode::ServiceNotAvailable,
    ReplyCode::MailboxBusy,
    ReplyCode::SyntaxError,
    ReplyCode::ParamSyntaxError,
    ReplyCode::BadSequence,
    ReplyCode::MailboxUnavailable,
    ReplyCode::ExceededAllocation,
];

proptest! {
    /// Neither parser may panic, whatever bytes arrive off the wire.
    #[test]
    fn parsers_survive_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let line = String::from_utf8_lossy(&bytes).into_owned();
        let _ = Command::parse(&line);
        let _ = Reply::parse(&line);
    }

    /// Printable noise (the kind a garbled-but-line-framed transport
    /// produces) parses or errors, never panics — including strings that
    /// start like real verbs.
    #[test]
    fn parsers_survive_printable_noise(prefix in "(HELO|EHLO|MAIL FROM:|RCPT TO:|DATA|250|)", junk in "[ -~]{0,80}") {
        let line = format!("{prefix}{junk}");
        let _ = Command::parse(&line);
        let _ = Reply::parse(&line);
    }

    /// Rendering a command and parsing it back is the identity, and the
    /// re-render is byte-identical (parse∘render idempotent).
    #[test]
    fn command_render_parse_is_identity(
        pick in 0u8..9,
        domain in "[a-zA-Z0-9.-]{1,16}",
        path in "[a-zA-Z0-9@._+-]{0,16}",
        arg in "[a-zA-Z0-9@.]{1,16}",
    ) {
        let cmd = match pick {
            0 => Command::Helo(domain),
            1 => Command::MailFrom(path),
            2 => Command::RcptTo(arg.clone()),
            3 => Command::Data,
            4 => Command::Rset,
            5 => Command::Noop,
            6 => Command::Quit,
            7 => Command::Ehlo(domain),
            _ => Command::Vrfy(arg.clone()),
        };
        let wire = cmd.to_string();
        let parsed = Command::parse(&wire).ok();
        prop_assert_eq!(parsed.as_ref(), Some(&cmd), "wire {:?}", wire);
        prop_assert_eq!(parsed.unwrap().to_string(), wire);
    }

    /// Same for replies, over every code and arbitrary printable text
    /// (including text with leading spaces or dashes).
    #[test]
    fn reply_render_parse_is_identity(idx in 0usize..12, text in "[ -~]{0,60}") {
        let reply = Reply::new(CODES[idx], text);
        let wire = reply.to_string();
        let parsed = Reply::parse(&wire).ok();
        prop_assert_eq!(parsed.as_ref(), Some(&reply), "wire {:?}", wire);
        prop_assert_eq!(parsed.unwrap().to_string(), wire);
    }

    /// CRLF termination is always stripped before parsing.
    #[test]
    fn crlf_suffix_never_changes_the_parse(pick in 0u8..3, arg in "[a-zA-Z0-9.]{1,12}") {
        let line = match pick {
            0 => format!("HELO {arg}"),
            1 => format!("EHLO {arg}"),
            _ => format!("250 {arg}"),
        };
        let terminated = format!("{line}\r\n");
        prop_assert_eq!(Command::parse(&line).ok(), Command::parse(&terminated).ok());
        prop_assert_eq!(Reply::parse(&line).ok(), Reply::parse(&terminated).ok());
    }
}

/// A full SMTP session through a connection that drops, duplicates, and
/// garbles client lines (seeded, so the exact noise replays): the server
/// must keep answering valid reply lines — syntax errors included — and
/// terminate cleanly, never panic or wedge.
#[test]
fn server_survives_faulty_transport() {
    for seed in [1u64, 7, 42, 1337] {
        let (client_end, server_end) = MemoryTransport::pair();
        let sink = CollectSink::shared();
        let server = SmtpServer::new("zmail.test", sink.clone());
        let server_thread = std::thread::spawn(move || server.serve(server_end));

        let faults = LineFaults {
            drop: 0.1,
            duplicate: 0.1,
            garble: 0.3,
        };
        let mut client = FaultyConnection::new(client_end, faults, Sampler::new(seed));
        for round in 0..10 {
            client.send_line("HELO client.test").unwrap();
            client
                .send_line(&format!("MAIL FROM:<u{round}@client.test>"))
                .unwrap();
            client.send_line("RCPT TO:<v@zmail.test>").unwrap();
            client.send_line("DATA").unwrap();
            client.send_line(&format!("hello {round}")).unwrap();
            client.send_line(".").unwrap();
        }
        // Enough terminators that some "." and one QUIT survive the noise
        // even at these rates, whatever the seed.
        for _ in 0..50 {
            client.send_line(".").unwrap();
        }
        for _ in 0..50 {
            // The server drops its endpoint at the first QUIT it parses;
            // a send racing past that point fails with `BrokenPipe`,
            // which is the success signal, not a failure.
            if client.send_line("QUIT").is_err() {
                break;
            }
        }
        let injected = client.dropped + client.duplicated + client.garbled;
        assert!(
            injected > 0,
            "seed {seed}: the faulty transport injected nothing"
        );

        // The server exits at the first QUIT it parses; its endpoint drops
        // and the reply channel drains to EOF.
        let served = server_thread
            .join()
            .expect("server panicked under line noise");
        assert!(served.is_ok(), "seed {seed}: serve failed: {served:?}");
        let mut replies = 0;
        let mut syntax_errors = 0;
        while let Some(line) = client.recv_line().unwrap() {
            let reply = Reply::parse(&line)
                .unwrap_or_else(|e| panic!("seed {seed}: invalid reply line {line:?}: {e:?}"));
            if reply.code == ReplyCode::SyntaxError {
                syntax_errors += 1;
            }
            replies += 1;
        }
        assert!(replies > 0, "seed {seed}: server never replied");
        assert!(
            syntax_errors > 0,
            "seed {seed}: garbling never produced a syntax error — noise too weak"
        );
    }
}
