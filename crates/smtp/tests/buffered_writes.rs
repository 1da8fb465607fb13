//! The flush invariant of the buffered TCP transport: outgoing lines wait
//! in `TcpConnection`'s buffer until the connection is about to block on a
//! read, or is dropped. These tests pin the consequences over real
//! sockets: a fully pipelined session never deadlocks on buffered replies,
//! the closing `221` still leaves, and large dot-stuffed payloads survive
//! the single-write path byte for byte.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use zmail_smtp::{
    Client, CollectSink, Connection, MailMessage, TcpConnection, ThreadedConfig, ThreadedServer,
};

fn server(sink: &CollectSink) -> ThreadedServer {
    ThreadedServer::start(
        "mx.test",
        sink.clone(),
        ThreadedConfig {
            workers: 2,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            ..ThreadedConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn fully_pipelined_session_gets_every_reply_in_order() {
    let sink = CollectSink::shared();
    let mut server = server(&sink);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // The whole session in one write: the server finds every command
    // already buffered, so it must not wait for more input while its
    // replies are still sitting in the output buffer.
    stream
        .write_all(
            b"HELO c.test\r\nMAIL FROM:<a@x>\r\nRCPT TO:<b@y>\r\nDATA\r\n\
              Subject: pipelined\r\n\r\nbody\r\n.\r\nQUIT\r\n",
        )
        .unwrap();
    let mut transcript = String::new();
    stream.read_to_string(&mut transcript).unwrap();
    let codes: Vec<&str> = transcript.lines().map(|l| &l[..3]).collect();
    assert_eq!(
        codes,
        ["220", "250", "250", "250", "354", "250", "221"],
        "{transcript}"
    );
    server.stop();
    let got = sink.messages();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].header("Subject"), Some("pipelined"));
    assert_eq!(got[0].body(), "body\r\n");
}

#[test]
fn closing_221_reaches_the_client_after_quit() {
    let sink = CollectSink::shared();
    let mut server = server(&sink);
    let mut conn = TcpConnection::connect(server.addr()).unwrap();
    assert!(conn.recv_line().unwrap().unwrap().starts_with("220"));
    conn.send_line("HELO c.test").unwrap();
    assert!(conn.recv_line().unwrap().unwrap().starts_with("250"));
    // The server answers QUIT and returns without reading again, so the
    // 221 only leaves through the flush on drop.
    conn.send_line("QUIT").unwrap();
    assert_eq!(
        conn.recv_line().unwrap().as_deref(),
        Some("221 mx.test closing")
    );
    assert_eq!(conn.recv_line().unwrap(), None);
    server.stop();
}

#[test]
fn long_dot_stuffed_body_arrives_byte_identical() {
    let sink = CollectSink::shared();
    let mut server = server(&sink);
    let body: String = (0..200)
        .map(|i| match i % 4 {
            0 => format!(".leading dot {i}\r\n"),
            1 => "..\r\n".to_string(),
            2 => ".\r\n".to_string(),
            _ => format!("plain line {i}\r\n"),
        })
        .collect();
    let msg = MailMessage::builder("a@x", "b@y")
        .header("Subject", "dots")
        .body(body.clone())
        .build();
    let conn = TcpConnection::connect(server.addr()).unwrap();
    let mut client = Client::connect(conn, "c.test").unwrap();
    client.send(&msg).unwrap();
    client.quit().unwrap();
    server.stop();
    let got = sink.messages();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].body(), body);
    assert_eq!(got[0].to_data(), msg.to_data());
}

#[test]
fn sent_lines_stay_buffered_until_the_sender_reads() {
    let listener = zmail_smtp::bind_loopback(5).unwrap();
    let mut conn = TcpConnection::connect(listener.local_addr().unwrap()).unwrap();
    let (mut peer, _) = listener.accept().unwrap();
    conn.send_line("one").unwrap();
    conn.send_line("two").unwrap();
    peer.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let mut byte = [0u8; 1];
    let err = peer.read(&mut byte).unwrap_err();
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "nothing may be written before a read: {err:?}"
    );
    // Reading flushes both lines in one write; the peer answers.
    let answer = std::thread::spawn(move || {
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut got = [0u8; 10];
        peer.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"one\r\ntwo\r\n");
        peer.write_all(b"ok\r\n").unwrap();
    });
    assert_eq!(conn.recv_line().unwrap().as_deref(), Some("ok"));
    answer.join().unwrap();
}
