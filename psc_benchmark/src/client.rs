//! The load generator's connection: pre-encoded requests out, raw reply
//! frames back, each compared byte for byte with its reference reply.
//!
//! It does as little per request as a client can — no encode, no decode,
//! no allocation — so what a run measures is the servers. Closed loop: a
//! new request is sent only when a reply frees a slot of the window.

use crate::workloads::{Frames, Proto};
use psc_model::codec::BINARY_PREAMBLE;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A reply slower than this fails the run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The server's acknowledgement of the binary preamble: frame length 2,
/// opcode `0x80`, protocol version.
const READY_FRAME: [u8; 6] = [2, 0, 0, 0, 0x80, BINARY_PREAMBLE[4]];

pub struct Conn {
    stream: TcpStream,
    proto: Proto,
    /// Received bytes not yet consumed: `buf[head..tail]`.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
    pub io: IoCounters,
}

/// What the connection has moved, and in how many system calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct IoCounters {
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub writes: u64,
    pub reads: u64,
}

/// Length of the first complete frame in `bytes`, if one is there.
fn frame_len(proto: Proto, bytes: &[u8]) -> Option<usize> {
    match proto {
        Proto::Binary => {
            let header: [u8; 4] = bytes.get(..4)?.try_into().ok()?;
            let len = 4 + u32::from_le_bytes(header) as usize;
            (bytes.len() >= len).then_some(len)
        }
        Proto::Json => bytes.iter().position(|&b| b == b'\n').map(|at| at + 1),
    }
}

/// What one pass over a run of requests saw.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PassOutcome {
    pub ops: u64,
    /// Replies that differ from the reference (error replies included).
    pub failed: u64,
}

impl Conn {
    pub fn connect(addr: SocketAddr, proto: Proto) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let mut conn = Conn {
            stream,
            proto,
            buf: vec![0; 256 * 1024],
            head: 0,
            tail: 0,
            io: IoCounters::default(),
        };
        if proto == Proto::Binary {
            conn.send(&BINARY_PREAMBLE)?;
            let ready = conn.next_frame()?;
            if conn.buf[ready.clone()] != READY_FRAME {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "server did not acknowledge the binary protocol",
                ));
            }
        }
        Ok(conn)
    }

    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        // `write_all` loops only when the socket buffer is full; at these
        // window sizes one call is one `send`.
        self.stream.write_all(bytes)?;
        self.io.bytes_sent += bytes.len() as u64;
        self.io.writes += 1;
        Ok(())
    }

    /// Blocks until one whole frame is buffered; returns where it lies.
    fn next_frame(&mut self) -> io::Result<std::ops::Range<usize>> {
        loop {
            if let Some(len) = frame_len(self.proto, &self.buf[self.head..self.tail]) {
                let frame = self.head..self.head + len;
                self.head += len;
                return Ok(frame);
            }
            if self.head > 0 {
                self.buf.copy_within(self.head..self.tail, 0);
                self.tail -= self.head;
                self.head = 0;
            }
            if self.tail == self.buf.len() {
                // A frame longer than the buffer (a stats reply, a large
                // match set): grow rather than fail.
                self.buf.resize(self.buf.len() * 2, 0);
            }
            let n = self.stream.read(&mut self.buf[self.tail..])?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.tail += n;
            self.io.bytes_received += n as u64;
            self.io.reads += 1;
        }
    }

    /// One request, one reply: returns the raw reply frame.
    pub fn call(&mut self, request: &[u8]) -> io::Result<&[u8]> {
        self.send(request)?;
        let frame = self.next_frame()?;
        Ok(&self.buf[frame])
    }

    /// Sends requests `from..to` keeping up to `window` in flight, and
    /// checks every reply against `expected`. `on_reply(i, sent_at)` runs
    /// after reply `i` is checked; `sent_at` is when the write carrying
    /// request `i` began.
    pub fn pass(
        &mut self,
        requests: &Frames,
        expected: &Frames,
        (from, to): (usize, usize),
        window: usize,
        mut on_reply: impl FnMut(usize, Instant),
    ) -> io::Result<PassOutcome> {
        let mut outcome = PassOutcome::default();
        let (mut sent, mut received) = (from, from);
        // `sent_at` of the request at the head of the window is only read
        // at window 1, where each write carries exactly one request.
        let mut sent_at = Instant::now();
        while received < to {
            let target = to.min(received + window);
            if sent < target {
                sent_at = Instant::now();
                self.send(requests.run(sent, target))?;
                sent = target;
            }
            // Block for one reply, then drain whatever else has arrived
            // before topping the window up again, so one write carries
            // every request the drained replies made room for.
            let mut frame = self.next_frame()?;
            loop {
                outcome.ops += 1;
                if self.buf[frame] != *expected.get(received) {
                    outcome.failed += 1;
                }
                on_reply(received, sent_at);
                received += 1;
                if received == sent {
                    break;
                }
                match frame_len(self.proto, &self.buf[self.head..self.tail]) {
                    Some(_) => frame = self.next_frame()?,
                    None => break,
                }
            }
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_len_waits_for_the_whole_frame() {
        assert_eq!(frame_len(Proto::Binary, &[2, 0, 0]), None);
        assert_eq!(frame_len(Proto::Binary, &[2, 0, 0, 0, 0x80]), None);
        assert_eq!(frame_len(Proto::Binary, &[2, 0, 0, 0, 0x80, 1, 9]), Some(6));
        assert_eq!(frame_len(Proto::Json, b"{\"ok\":tr"), None);
        assert_eq!(frame_len(Proto::Json, b"{}\n{"), Some(3));
    }
}
