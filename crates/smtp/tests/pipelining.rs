//! The client side of RFC 2920 PIPELINING, pinned against scripted TCP
//! peers: `Client::send` writes `MAIL`, every `RCPT` and `DATA` before it
//! reads any reply, `Client::connect` refuses a server that does not
//! advertise `PIPELINING`, multi-line replies are read whole, and a
//! partly rejected transaction is aborted with a lone dot and `RSET`.
//!
//! Each peer reads with a timeout, so a client that waits for a reply the
//! peer never sends fails the test instead of hanging it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;
use zmail_smtp::{Client, MailMessage, ReplyCode, SmtpError, TcpConnection};

/// The server end of a scripted session.
struct Peer {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Peer {
    /// The next line without its CRLF, or `None` at EOF. Panics when the
    /// client sends nothing within the read timeout.
    fn line(&mut self) -> Option<String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .expect("the client stopped sending before the peer replied");
        (n > 0).then(|| line.trim_end_matches(['\r', '\n']).to_string())
    }

    fn expect(&mut self, want: &str) {
        assert_eq!(self.line().as_deref(), Some(want));
    }

    /// Writes every line in one write.
    fn reply(&mut self, lines: &[&str]) {
        let wire: String = lines.iter().map(|l| format!("{l}\r\n")).collect();
        self.writer.write_all(wire.as_bytes()).unwrap();
    }

    /// Reads a dot-terminated payload; returns its line count.
    fn payload(&mut self) -> usize {
        let mut lines = 0;
        while self.line().expect("EOF inside DATA") != "." {
            lines += 1;
        }
        lines
    }
}

/// Accepts one connection, greets with `220` and runs `script` on it.
fn scripted_peer(script: impl FnOnce(&mut Peer) + Send + 'static) -> (SocketAddr, JoinHandle<()>) {
    let listener = zmail_smtp::bind_loopback(5).unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut peer = Peer {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        };
        peer.reply(&["220 peer.test ready"]);
        script(&mut peer);
    });
    (addr, handle)
}

fn connect(addr: SocketAddr) -> Result<Client<TcpConnection>, SmtpError> {
    Client::connect(TcpConnection::connect(addr).unwrap(), "c.test")
}

fn two_recipient_message() -> MailMessage {
    MailMessage::builder("a@x", "b@y")
        .also_to("c@y")
        .header("Subject", "pipelined")
        .body("hello\r\n")
        .build()
}

#[test]
fn mail_rcpt_and_data_arrive_before_any_reply() {
    let (addr, peer) = scripted_peer(|peer| {
        peer.expect("EHLO c.test");
        peer.reply(&["250-x", "250 PIPELINING"]);
        // Every command of the group is read before one reply is written:
        // a lockstep client would still be waiting for the `MAIL` reply.
        for want in ["MAIL FROM:<a@x>", "RCPT TO:<b@y>", "RCPT TO:<c@y>", "DATA"] {
            peer.expect(want);
        }
        peer.reply(&["250 sender ok", "250 ok", "250 ok", "354 go ahead"]);
        assert_eq!(peer.payload(), 3, "Subject header, separator, body");
        peer.reply(&["250 accepted"]);
        peer.expect("QUIT");
        peer.reply(&["221 bye"]);
    });
    let mut client = connect(addr).unwrap();
    client.send(&two_recipient_message()).unwrap();
    client.quit().unwrap();
    peer.join().unwrap();
}

/// Runs `Client::connect` against a peer answering `EHLO` with `ehlo`;
/// the peer asserts that the client hangs up without sending `MAIL`.
fn connect_is_refused(ehlo: &'static [&'static str]) -> SmtpError {
    let (addr, peer) = scripted_peer(move |peer| {
        peer.expect("EHLO c.test");
        peer.reply(ehlo);
        assert_eq!(peer.line(), None, "the client must hang up, not go on");
    });
    let err = connect(addr).unwrap_err();
    peer.join().unwrap();
    err
}

#[test]
fn connect_refuses_a_server_without_pipelining() {
    let err = connect_is_refused(&["250-x hello", "250-SIZE 1000", "250 8BITMIME"]);
    assert!(
        matches!(&err, SmtpError::UnexpectedReply(r) if r.code == ReplyCode::Ok),
        "{err:?}"
    );
}

#[test]
fn connect_refuses_a_server_that_rejects_ehlo() {
    let err = connect_is_refused(&["500 command unrecognized"]);
    assert!(
        matches!(&err, SmtpError::UnexpectedReply(r) if r.code == ReplyCode::SyntaxError),
        "{err:?}"
    );
}

#[test]
fn multi_line_replies_are_read_whole() {
    let (addr, peer) = scripted_peer(|peer| {
        peer.expect("EHLO c.test");
        peer.reply(&[
            "250-x hello",
            "250-SIZE 1000",
            "250-8BITMIME",
            "250 PIPELINING",
        ]);
        for want in ["MAIL FROM:<a@x>", "RCPT TO:<b@y>", "RCPT TO:<c@y>", "DATA"] {
            peer.expect(want);
        }
        // Three continuation lines on the `MAIL` reply: if the client
        // took each line as a reply, it would read `250 ok` for `DATA`.
        peer.reply(&[
            "250-sender",
            "250-looks",
            "250-fine",
            "250 ok",
            "250 ok",
            "250 ok",
            "354 go ahead",
        ]);
        peer.payload();
        peer.reply(&["250 accepted"]);
    });
    let mut client = connect(addr).unwrap();
    client.send(&two_recipient_message()).unwrap();
    drop(client);
    peer.join().unwrap();
}

#[test]
fn partly_rejected_transaction_is_aborted_with_a_lone_dot_and_rset() {
    let (addr, peer) = scripted_peer(|peer| {
        peer.expect("EHLO c.test");
        peer.reply(&["250-x", "250 PIPELINING"]);
        for want in ["MAIL FROM:<a@x>", "RCPT TO:<b@y>", "RCPT TO:<c@y>", "DATA"] {
            peer.expect(want);
        }
        // `c@y` is accepted, so `DATA` gets `354` (RFC 2920 §3.1).
        peer.reply(&[
            "250 sender ok",
            "550 no such user",
            "250 ok",
            "354 go ahead",
        ]);
        // The client must send an empty payload, then reset.
        peer.expect(".");
        peer.expect("RSET");
        peer.reply(&["552 empty message", "250 reset"]);
    });
    let mut client = connect(addr).unwrap();
    let err = client.send(&two_recipient_message()).unwrap_err();
    assert!(
        matches!(&err, SmtpError::UnexpectedReply(r) if r.code == ReplyCode::MailboxUnavailable),
        "the first RCPT refusal is reported: {err:?}"
    );
    drop(client);
    peer.join().unwrap();
}

#[test]
fn a_421_ends_the_group_at_once() {
    let (addr, peer) = scripted_peer(|peer| {
        peer.expect("EHLO c.test");
        peer.reply(&["250-x", "250 PIPELINING"]);
        peer.expect("MAIL FROM:<a@x>");
        // An idle-timeout close: one `421`, then no more replies.
        peer.reply(&["421 idle timeout, closing"]);
    });
    let mut client = connect(addr).unwrap();
    let err = client.send(&two_recipient_message()).unwrap_err();
    assert!(
        matches!(&err, SmtpError::UnexpectedReply(r) if r.code == ReplyCode::ServiceNotAvailable),
        "{err:?}"
    );
    peer.join().unwrap();
}
