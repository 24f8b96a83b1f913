//! A blocking line-framed client, used by the tests, the benches and
//! anything that wants to talk to a [`crate::server::Server`] without
//! hand-rolling the framing.
//!
//! Notifications are interleaved with replies on the wire; the client
//! buffers any notification that arrives while it is waiting for a
//! reply, and exposes the buffer through [`Client::take_notifications`]
//! and [`Client::recv_notification`].

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::json::Json;
use crate::protocol::{encode_push, Request, ServerFrame};

/// Errors a client call can produce.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (includes a server-side disconnect).
    Io(std::io::Error),
    /// A frame that did not decode.
    Protocol(String),
    /// The server answered `ok:false` with this message.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Server(e) => write!(f, "server: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A match notification as received from the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Notification {
    /// The query id.
    pub id: u32,
    /// New embeddings in the completed batch.
    pub new: u64,
    /// Retracted embeddings in the completed batch.
    pub retracted: u64,
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    pending: VecDeque<Notification>,
    /// Partial line carried across a read timeout. `read_until` (unlike
    /// `read_line`) keeps already-consumed bytes in its buffer when the
    /// read errors mid-line, so a timeout never corrupts the framing.
    partial: Vec<u8>,
}

impl Client {
    /// Connects and consumes the server's hello frame; a full server
    /// (`ok:false` hello) surfaces as [`ClientError::Server`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut client = Client {
            writer: stream,
            reader,
            pending: VecDeque::new(),
            partial: Vec::new(),
        };
        client.expect_reply("hello")?;
        Ok(client)
    }

    /// Registers a pattern; returns `(query id, epoch at which it is
    /// live)`.
    pub fn register(&mut self, query: &str) -> Result<(u32, u64), ClientError> {
        let body = self.call(Request::Register {
            query: query.to_string(),
        })?;
        Ok((field(&body, "id")? as u32, field(&body, "epoch")?))
    }

    /// Unregisters a query this connection owns; returns the epoch at
    /// which it stops matching.
    pub fn unregister(&mut self, id: u32) -> Result<u64, ClientError> {
        let body = self.call(Request::Unregister { id })?;
        field(&body, "epoch")
    }

    /// Pushes signed edges: `(retract?, label, src, tgt)`.
    pub fn push(&mut self, edges: &[(bool, &str, &str, &str)]) -> Result<u64, ClientError> {
        self.send_line(encode_push(edges.iter().copied()))?;
        let body = self.expect_reply("push")?;
        field(&body, "accepted")
    }

    /// Forces an epoch boundary; when the reply arrives, every
    /// notification from batches completed before the boundary has
    /// already been received (same ordered queue).
    pub fn flush(&mut self) -> Result<u64, ClientError> {
        let body = self.call(Request::Flush)?;
        field(&body, "epoch")
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.call(Request::Ping).map(|_| ())
    }

    /// Engine statistics, as raw reply fields.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.call(Request::Stats)
    }

    /// Notifications buffered so far (drains the buffer). Does not read
    /// from the socket.
    pub fn take_notifications(&mut self) -> Vec<Notification> {
        std::mem::take(&mut self.pending).into()
    }

    /// Blocks up to `timeout` for one notification (buffered ones are
    /// returned first). `Ok(None)` on timeout.
    pub fn recv_notification(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<Notification>, ClientError> {
        if let Some(n) = self.pending.pop_front() {
            return Ok(Some(n));
        }
        self.reader.get_ref().set_read_timeout(Some(timeout))?;
        let result = match self.read_frame() {
            Ok(ServerFrame::Notify { id, new, retracted }) => {
                Ok(Some(Notification { id, new, retracted }))
            }
            Ok(ServerFrame::Reply { op, .. }) => Err(ClientError::Protocol(format!(
                "unexpected `{op}` reply while waiting for notifications"
            ))),
            Err(ClientError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        };
        self.reader.get_ref().set_read_timeout(None)?;
        result
    }

    /// Sums buffered notifications into per-query `(new, retracted)`
    /// totals. Call [`Client::flush`] first to pin a boundary.
    pub fn notification_totals(&mut self) -> BTreeMap<u32, (u64, u64)> {
        let mut totals: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for n in self.take_notifications() {
            let entry = totals.entry(n.id).or_default();
            entry.0 += n.new;
            entry.1 += n.retracted;
        }
        totals
    }

    /// Sends one raw line (no newline needed); test hook for malformed
    /// input.
    pub fn send_raw(&mut self, line: &str) -> Result<(), ClientError> {
        self.send_line(line.to_string())
    }

    /// Sends `line` and its newline with one `write`.
    fn send_line(&mut self, mut line: String) -> Result<(), ClientError> {
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        Ok(())
    }

    /// Reads the next reply frame, buffering notifications that arrive
    /// first; test hook paired with [`Client::send_raw`].
    pub fn read_reply(&mut self) -> Result<(String, bool, Json), ClientError> {
        loop {
            match self.read_frame()? {
                ServerFrame::Notify { id, new, retracted } => {
                    self.pending.push_back(Notification { id, new, retracted });
                }
                ServerFrame::Reply { op, ok, body } => return Ok((op, ok, body)),
            }
        }
    }

    fn call(&mut self, req: Request) -> Result<Json, ClientError> {
        let expect = req.op_name();
        self.send_line(req.encode())?;
        self.expect_reply(expect)
    }

    fn expect_reply(&mut self, expect: &str) -> Result<Json, ClientError> {
        let (op, ok, body) = self.read_reply()?;
        if op != expect {
            return Err(ClientError::Protocol(format!(
                "expected `{expect}` reply, got `{op}`"
            )));
        }
        if !ok {
            let msg = body
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown error");
            return Err(ClientError::Server(msg.to_string()));
        }
        Ok(body)
    }

    fn read_frame(&mut self) -> Result<ServerFrame, ClientError> {
        loop {
            let n = self.reader.read_until(b'\n', &mut self.partial)?;
            if n == 0 && self.partial.is_empty() {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )));
            }
            if self.partial.last() != Some(&b'\n') && n > 0 {
                // EOF cut the line short; the next read settles it.
                continue;
            }
            let line = std::mem::take(&mut self.partial);
            let text = String::from_utf8(line)
                .map_err(|e| ClientError::Protocol(format!("non-UTF-8 frame: {e}")))?;
            let trimmed = text.trim();
            if trimmed.is_empty() {
                continue;
            }
            return ServerFrame::decode(trimmed).map_err(ClientError::Protocol);
        }
    }
}

fn field(body: &Json, key: &str) -> Result<u64, ClientError> {
    body.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ClientError::Protocol(format!("reply missing integer `{key}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{notify, reply_ok};
    use std::io::Read;
    use std::net::TcpListener;

    /// Notifications buffered behind a reply come back in arrival order:
    /// first one at a time through `recv_notification`, then the rest
    /// through `take_notifications`.
    #[test]
    fn buffered_notifications_are_returned_in_arrival_order() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // A scripted server: the hello, then, once the ping arrives, five
        // notifications ahead of the ping reply in a single write.
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut frames = reply_ok("hello", vec![]) + "\n";
            stream.write_all(frames.as_bytes()).unwrap();
            let mut byte = [0u8];
            while stream.read(&mut byte).unwrap() == 1 && byte[0] != b'\n' {}
            frames.clear();
            for id in 0..5 {
                frames += &(notify(id, id as u64 + 1, 0) + "\n");
            }
            frames += &(reply_ok("ping", vec![]) + "\n");
            stream.write_all(frames.as_bytes()).unwrap();
            stream
        });

        let mut client = Client::connect(addr).unwrap();
        client.ping().unwrap();
        for id in 0..3 {
            let n = client
                .recv_notification(Duration::from_secs(5))
                .unwrap()
                .expect("buffered");
            assert_eq!((n.id, n.new), (id, id as u64 + 1));
        }
        let rest: Vec<u32> = client.take_notifications().iter().map(|n| n.id).collect();
        assert_eq!(rest, vec![3, 4]);
        assert!(client.take_notifications().is_empty());
        drop(server.join().unwrap());
    }
}
