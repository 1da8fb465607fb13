//! The SMTP client: drives any [`Connection`] through a submission.

use crate::message::MailMessage;
use crate::reply::{Reply, ReplyCode};
use crate::transport::Connection;
use crate::SmtpError;

/// An SMTP client session that pipelines every submission (RFC 2920).
///
/// Created with [`Client::connect`], which consumes the server greeting and
/// performs the `EHLO` exchange; [`Client::send`] then submits messages and
/// [`Client::quit`] closes the session politely.
#[derive(Debug)]
pub struct Client<C> {
    conn: C,
}

impl<C: Connection> Client<C> {
    /// Opens a session: reads the `220` greeting, sends `EHLO domain` and
    /// reads the whole multi-line reply, which must advertise
    /// `PIPELINING`.
    ///
    /// # Errors
    ///
    /// Returns [`SmtpError::UnexpectedReply`] if the server does not greet
    /// with `220`, refuses the `EHLO`, or does not offer `PIPELINING`, and
    /// transport errors as-is.
    pub fn connect(mut conn: C, domain: &str) -> Result<Self, SmtpError> {
        let greeting = recv_reply(&mut conn)?;
        if greeting.code != ReplyCode::ServiceReady {
            return Err(SmtpError::UnexpectedReply(greeting));
        }
        conn.send_line(&format!("EHLO {domain}"))?;
        let ehlo = recv_reply(&mut conn)?;
        // The first line greets; each later line names one extension.
        let pipelining = ehlo.text.lines().skip(1).any(|extension| {
            extension
                .split_whitespace()
                .next()
                .is_some_and(|keyword| keyword.eq_ignore_ascii_case("PIPELINING"))
        });
        if ehlo.code != ReplyCode::Ok || !pipelining {
            return Err(SmtpError::UnexpectedReply(ehlo));
        }
        Ok(Client { conn })
    }

    /// Submits one message in two round trips: `MAIL`, every `RCPT` and
    /// `DATA` go out as one group and their replies are read together;
    /// after `354` the payload goes out and the final reply is read.
    ///
    /// # Errors
    ///
    /// Returns [`SmtpError::UnexpectedReply`] with the first non-positive
    /// response (e.g. a `552` bounce from a Zmail balance check) and
    /// transport errors as-is. Delivery is all or nothing: when `MAIL` or
    /// any `RCPT` is refused, a `DATA` the server accepted anyway gets a
    /// lone `.` (an empty payload, which the server refuses), and the
    /// transaction is reset before returning so the session stays usable.
    pub fn send(&mut self, message: &MailMessage) -> Result<(), SmtpError> {
        self.conn
            .send_line(&format!("MAIL FROM:<{}>", message.from()))?;
        for recipient in message.recipients() {
            self.conn.send_line(&format!("RCPT TO:<{recipient}>"))?;
        }
        self.conn.send_line("DATA")?;
        let mut refused = None;
        for _ in 0..=message.recipients().len() {
            let reply = self.recv_group_reply()?;
            if reply.code != ReplyCode::Ok && refused.is_none() {
                refused = Some(reply);
            }
        }
        let data_reply = self.recv_group_reply()?;
        if let Some(refused) = refused {
            let abort_data = data_reply.code == ReplyCode::StartMailInput;
            if abort_data {
                self.conn.send_line(".")?;
            }
            self.conn.send_line("RSET")?;
            for _ in 0..=usize::from(abort_data) {
                recv_reply(&mut self.conn)?;
            }
            return Err(SmtpError::UnexpectedReply(refused));
        }
        if data_reply.code != ReplyCode::StartMailInput {
            return Err(SmtpError::UnexpectedReply(data_reply));
        }
        let data = message.to_data();
        // `to_data` ends with ".\r\n"; send line by line.
        for line in data.split_inclusive("\r\n") {
            self.conn.send_line(line.trim_end_matches(['\r', '\n']))?;
        }
        let final_reply = recv_reply(&mut self.conn)?;
        if final_reply.code != ReplyCode::Ok {
            return Err(SmtpError::UnexpectedReply(final_reply));
        }
        Ok(())
    }

    /// Ends the session with `QUIT`.
    ///
    /// # Errors
    ///
    /// Returns transport errors; a missing `221` is tolerated.
    pub fn quit(mut self) -> Result<(), SmtpError> {
        self.conn.send_line("QUIT")?;
        let _ = recv_reply(&mut self.conn); // best effort
        Ok(())
    }

    /// Reads the next reply of a pipelined group. The server closes the
    /// session after a `421` (e.g. an idle timeout), so that reply is
    /// returned at once instead of waiting for replies that never come.
    fn recv_group_reply(&mut self) -> Result<Reply, SmtpError> {
        let reply = recv_reply(&mut self.conn)?;
        if reply.code == ReplyCode::ServiceNotAvailable {
            return Err(SmtpError::UnexpectedReply(reply));
        }
        Ok(reply)
    }
}

/// Reads one whole reply. A line whose fourth byte is `-` continues the
/// reply (`250-first`, …, `250 last`); the lines' texts are joined with
/// `\n`, and every line must carry the same code.
fn recv_reply<C: Connection>(conn: &mut C) -> Result<Reply, SmtpError> {
    let mut line = recv_line(conn)?;
    let mut reply = Reply::parse(&line)?;
    while line.as_bytes().get(3) == Some(&b'-') {
        line = recv_line(conn)?;
        let more = Reply::parse(&line)?;
        if more.code != reply.code {
            return Err(SmtpError::Syntax(line));
        }
        reply.text.push('\n');
        reply.text.push_str(&more.text);
    }
    Ok(reply)
}

fn recv_line<C: Connection>(conn: &mut C) -> Result<String, SmtpError> {
    conn.recv_line()?.ok_or(SmtpError::ConnectionClosed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{CollectSink, MailSink, SinkError};
    use crate::testutil::spawn_server;

    #[test]
    fn client_submits_message_end_to_end() {
        let sink = CollectSink::shared();
        let (conn, handle) = spawn_server(sink.clone());
        let mut client = Client::connect(conn, "sender.test").unwrap();
        let msg = MailMessage::builder("a@x", "b@y")
            .header("Subject", "via client")
            .body("first\r\n.second needs stuffing\r\n")
            .build();
        client.send(&msg).unwrap();
        client.quit().unwrap();
        assert_eq!(handle.join().unwrap(), 1);
        let got = &sink.messages()[0];
        assert_eq!(got.header("Subject"), Some("via client"));
        assert_eq!(got.body(), "first\r\n.second needs stuffing\r\n");
    }

    #[test]
    fn client_sends_multiple_messages_per_session() {
        let sink = CollectSink::shared();
        let (conn, handle) = spawn_server(sink.clone());
        let mut client = Client::connect(conn, "s.test").unwrap();
        for i in 0..3 {
            let msg = MailMessage::builder("a@x", "b@y")
                .header("Subject", format!("msg {i}"))
                .body("hi\r\n")
                .build();
            client.send(&msg).unwrap();
        }
        client.quit().unwrap();
        assert_eq!(handle.join().unwrap(), 3);
        assert_eq!(sink.len(), 3);
    }

    #[test]
    fn recipient_rejection_surfaces_and_session_survives() {
        #[derive(Clone)]
        struct NoBob(CollectSink);
        impl MailSink for NoBob {
            fn accept_recipient(&self, _f: &str, to: &str) -> bool {
                to != "bob@y"
            }
            fn deliver(&self, m: MailMessage) -> Result<(), SinkError> {
                self.0.deliver(m)
            }
        }
        let collect = CollectSink::shared();
        let (conn, handle) = spawn_server(NoBob(collect.clone()));
        let mut client = Client::connect(conn, "s.test").unwrap();
        let rejected = MailMessage::builder("a@x", "bob@y").body("x\r\n").build();
        let err = client.send(&rejected).unwrap_err();
        assert!(
            matches!(err, SmtpError::UnexpectedReply(r) if r.code == ReplyCode::MailboxUnavailable)
        );
        // The session is still usable for an accepted recipient.
        let ok = MailMessage::builder("a@x", "carol@y").body("y\r\n").build();
        client.send(&ok).unwrap();
        client.quit().unwrap();
        assert_eq!(handle.join().unwrap(), 1);
        assert_eq!(collect.messages()[0].recipients(), ["carol@y"]);
    }

    #[test]
    fn delivery_bounce_is_reported_as_unexpected_reply() {
        struct Bouncer;
        impl MailSink for Bouncer {
            fn deliver(&self, _m: MailMessage) -> Result<(), SinkError> {
                Err("limit exceeded".into())
            }
        }
        let (conn, handle) = spawn_server(Bouncer);
        let mut client = Client::connect(conn, "s.test").unwrap();
        let msg = MailMessage::builder("a@x", "b@y").body("x\r\n").build();
        let err = client.send(&msg).unwrap_err();
        match err {
            SmtpError::UnexpectedReply(reply) => {
                assert_eq!(reply.code, ReplyCode::ExceededAllocation);
                assert!(reply.text.contains("limit"));
            }
            other => panic!("wrong error: {other:?}"),
        }
        client.quit().unwrap();
        assert_eq!(handle.join().unwrap(), 0);
    }
}
