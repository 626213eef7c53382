//! The client side of the wire: persistent keep-alive connections to an
//! `imcat-net` server, and the accounting of what each request came back as.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use imcat_net::http::read_response;

/// Longer than the server's own 2 s request deadline, so a stuck request
/// shows up as the server's `504` before the client gives up on it.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// What one request came back as.
#[derive(Debug)]
pub enum Outcome {
    /// `200` or `201`, with the body.
    Ok(String),
    /// `503`: admission control refused the request.
    Refused,
    /// `408` or `504`: the request ran out of its deadline.
    TimedOut,
    /// Anything else: another status, a reset, a malformed response.
    Failed,
}

impl Outcome {
    fn from_status(status: u16, body: String) -> Self {
        match status {
            200 | 201 => Self::Ok(body),
            503 => Self::Refused,
            408 | 504 => Self::TimedOut,
            _ => Self::Failed,
        }
    }
}

/// Per-phase request accounting. Every request sent lands in exactly one of
/// `ok`, `refused`, `timed_out` and `failed`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent.
    pub sent: u64,
    /// Answered `200`/`201`.
    pub ok: u64,
    /// Refused with `503`.
    pub refused: u64,
    /// Timed out (`408`/`504`).
    pub timed_out: u64,
    /// Every other outcome.
    pub failed: u64,
}

impl Tally {
    /// Counts one request's outcome.
    pub fn record(&mut self, outcome: &Outcome) {
        self.sent += 1;
        match outcome {
            Outcome::Ok(_) => self.ok += 1,
            Outcome::Refused => self.refused += 1,
            Outcome::TimedOut => self.timed_out += 1,
            Outcome::Failed => self.failed += 1,
        }
    }

    /// Adds another tally's counts into this one.
    pub fn add(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.refused += other.refused;
        self.timed_out += other.timed_out;
        self.failed += other.failed;
    }

    /// Requests that did not come back answered. A refused request counts
    /// here too: it misses every latency limit.
    pub fn not_ok(&self) -> u64 {
        self.refused + self.timed_out + self.failed
    }

    /// `(failed + refused + timed out) / attempted`; 0 when nothing was sent.
    pub fn fail_frac(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.not_ok() as f64 / self.sent as f64
        }
    }
}

/// One persistent keep-alive connection. A transport error drops the socket;
/// the next request reconnects, and that request's latency includes it.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    /// Opens the connection now, so no timed request pays for it.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let mut client = Self { addr, stream: None, buf: Vec::new() };
        client.stream()?;
        Ok(client)
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            self.buf.clear();
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("stream was just opened"))
    }

    /// Closes the connection.
    pub fn close(&mut self) {
        self.stream = None;
    }

    /// `GET target`.
    pub fn get(&mut self, target: &str) -> Outcome {
        self.send("GET", target, "")
    }

    /// `POST target` with `body`.
    pub fn post(&mut self, target: &str, body: &str) -> Outcome {
        self.send("POST", target, body)
    }

    fn send(&mut self, method: &str, target: &str, body: &str) -> Outcome {
        match self.round_trip(method, target, body) {
            Ok((status, body)) => Outcome::from_status(status, body),
            Err(_) => {
                self.stream = None;
                Outcome::Failed
            }
        }
    }

    fn round_trip(&mut self, method: &str, target: &str, body: &str) -> io::Result<(u16, String)> {
        let request = format!(
            "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let stream = self.stream()?;
        stream.write_all(request.as_bytes())?;
        let stream = self.stream.as_mut().expect("stream is open");
        read_response(stream, &mut self.buf)
    }
}

/// The `/recommend` target for one request.
pub fn recommend_target(user: u32, k: usize) -> String {
    format!("/recommend?user={user}&k={k}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_request_lands_in_one_bucket() {
        let mut t = Tally::default();
        t.record(&Outcome::from_status(200, "{}".into()));
        t.record(&Outcome::from_status(201, "{}".into()));
        t.record(&Outcome::from_status(503, String::new()));
        t.record(&Outcome::from_status(504, String::new()));
        t.record(&Outcome::from_status(408, String::new()));
        t.record(&Outcome::from_status(400, String::new()));
        t.record(&Outcome::Failed);
        assert_eq!(t, Tally { sent: 7, ok: 2, refused: 1, timed_out: 2, failed: 2 });
        assert_eq!(t.ok + t.not_ok(), t.sent);
    }

    #[test]
    fn fail_frac_counts_refused_and_timed_out_as_failures() {
        assert_eq!(Tally::default().fail_frac(), 0.0);
        let mut t = Tally { sent: 8, ok: 8, ..Tally::default() };
        assert_eq!(t.fail_frac(), 0.0);
        t.add(&Tally { sent: 2, ok: 0, refused: 1, timed_out: 1, failed: 0 });
        assert_eq!(t.sent, 10);
        assert_eq!(t.fail_frac(), 0.2);
        t.add(&Tally { sent: 10, ok: 0, refused: 0, timed_out: 0, failed: 10 });
        assert_eq!(t.fail_frac(), 0.6);
    }
}
