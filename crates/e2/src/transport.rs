//! E2 transports: the byte pipes between the RIC agent and the RIC's E2
//! termination.
//!
//! Two implementations behind one trait:
//!
//! * [`InProcTransport`] — crossbeam channel pair; what tests and the
//!   single-process pipeline use.
//! * [`TcpTransport`] — a real `std::net::TcpStream`, so a RIC and a RAN
//!   can run as separate processes (the `live_ric_pipeline` example
//!   exercises it over loopback).
//!
//! ## Framing
//!
//! A stream has no message boundaries, so `TcpTransport` — and nothing else
//! in the workspace — puts a `u32` big-endian length before each message
//! and splits the byte stream back into frames on receipt. The in-proc
//! channel already carries whole messages and is not framed.
//! [`MAX_FRAME_LEN`] is defined and checked here only: both transports'
//! `send` refuse a longer message with the same error (a deployment proven
//! in-proc must not emit what TCP rejects), and the splitter refuses a
//! longer length prefix before buffering a byte of its body.
//!
//! ## Readiness model
//!
//! The RIC terminates hundreds of agents from one thread, so a pump
//! iteration must touch only connections with pending frames. Each
//! transport registers a [`Waker`] via [`E2Transport::register_waker`] and
//! answers with its [`Readiness`]:
//!
//! * [`Readiness::Event`] — the transport wakes the reactor itself when a
//!   frame lands. `InProcTransport` does this from the *sender's* side: a
//!   successful `send` flips the peer's wake flag, enqueueing its token on
//!   the reactor's [`WakeSet`] ready-queue. Cost per pump is O(active).
//! * [`Readiness::Polled`] — the transport cannot signal (a plain
//!   nonblocking socket without an OS readiness queue), so the reactor
//!   scans it every iteration. `TcpTransport` lives here; deployments mix
//!   a handful of polled sockets with thousands of event-driven in-proc
//!   conns without losing the O(active) pump.
//!
//! ## Egress backpressure
//!
//! `send` never blocks. Every transport owns a bounded egress queue (the
//! channel itself for in-proc, a byte buffer for TCP); when it is full the
//! frame is *dropped and counted* ([`SendOutcome::Dropped`],
//! [`E2Transport::dropped_frames`]) instead of stalling the reactor — a
//! slow or stalled peer can never wedge the RIC. [`E2Transport::flush`]
//! retries buffered egress and reports whether the queue drained.

use crossbeam_channel::{bounded, Receiver, Sender, TryRecvError, TrySendError};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use xsec_types::{Put, Result, XsecError};

/// Longest message either transport carries (1 MiB); also what bounds the
/// memory a corrupt or hostile length prefix can make a stream reader hold.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Bytes of length prefix before each frame on a stream.
const PREFIX_LEN: usize = 4;

fn check_frame_len(len: usize) -> Result<()> {
    if len > MAX_FRAME_LEN {
        return Err(XsecError::Codec(format!("frame of {len} bytes exceeds {MAX_FRAME_LEN}")));
    }
    Ok(())
}

/// How a transport participates in the reactor's readiness protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Readiness {
    /// The transport wakes its registered [`Waker`] when frames arrive;
    /// the reactor only visits it after a wake.
    Event,
    /// The transport cannot signal readiness; the reactor must scan it
    /// every pump iteration.
    Polled,
}

/// What happened to a frame handed to [`E2Transport::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Queued on (or written to) the wire.
    Sent,
    /// The bounded egress queue was full; the frame was dropped and
    /// counted. The connection stays healthy.
    Dropped,
}

/// Shared ready-queue state: one wake flag per token plus the FIFO of
/// tokens woken since the last drain.
#[derive(Debug, Default)]
struct WakeState {
    flags: Vec<bool>,
    ready: VecDeque<usize>,
}

/// The reactor's ready-queue: tokens (connection indices) whose transports
/// have signalled pending frames. Shared with transports through [`Waker`]
/// handles; drained once per pump iteration.
#[derive(Debug, Default, Clone)]
pub struct WakeSet {
    state: Arc<Mutex<WakeState>>,
}

impl WakeSet {
    /// An empty ready-queue.
    pub fn new() -> Self {
        WakeSet::default()
    }

    /// Creates the waker for `token`, growing the flag table as needed.
    pub fn waker(&self, token: usize) -> Waker {
        let mut state = self.state.lock().expect("wake set poisoned");
        if state.flags.len() <= token {
            state.flags.resize(token + 1, false);
        }
        Waker { state: Arc::clone(&self.state), token }
    }

    /// Drains every woken token into `out` (appended in wake order) and
    /// clears their flags, so a send racing the drain re-queues the token
    /// for the next iteration rather than being lost.
    pub fn drain_into(&self, out: &mut Vec<usize>) {
        let mut state = self.state.lock().expect("wake set poisoned");
        while let Some(token) = state.ready.pop_front() {
            state.flags[token] = false;
            out.push(token);
        }
    }

    /// Marks `token` ready directly (the reactor hands back the tokens of a
    /// drain it gave up part-way).
    pub fn mark_ready(&self, token: usize) {
        self.waker(token).wake();
    }
}

/// Handle a transport uses to tell the reactor "this connection has
/// pending frames". Waking an already-woken token is a no-op, so wake
/// storms coalesce into one pump visit.
#[derive(Debug, Clone)]
pub struct Waker {
    state: Arc<Mutex<WakeState>>,
    token: usize,
}

impl Waker {
    /// Enqueues this waker's token on the ready-queue (idempotent until
    /// the next drain).
    pub fn wake(&self) {
        let mut state = self.state.lock().expect("wake set poisoned");
        if state.flags.len() <= self.token {
            state.flags.resize(self.token + 1, false);
        }
        if !state.flags[self.token] {
            state.flags[self.token] = true;
            state.ready.push_back(self.token);
        }
    }
}

/// A bidirectional, message-oriented E2 byte pipe.
pub trait E2Transport: Send {
    /// Sends one message (a full E2AP PDU) without blocking. A full egress
    /// queue drops the frame ([`SendOutcome::Dropped`]) and counts it in
    /// [`E2Transport::dropped_frames`]; `Err` is reserved for a dead peer.
    fn send(&mut self, frame: &[u8]) -> Result<SendOutcome>;

    /// Receives the next complete message if one is available.
    fn try_recv(&mut self) -> Result<Option<Vec<u8>>>;

    /// Registers the reactor's waker for this connection and reports how
    /// the transport will use it. Transports that already hold queued
    /// inbound frames must wake immediately so no pre-registration frame
    /// is stranded. The default is a polled transport that ignores the
    /// waker.
    fn register_waker(&mut self, _waker: Waker) -> Readiness {
        Readiness::Polled
    }

    /// Retries any buffered egress; `Ok(true)` when the egress queue is
    /// empty (nothing left to flush).
    fn flush(&mut self) -> Result<bool> {
        Ok(true)
    }

    /// Frames dropped so far because the egress queue was full.
    fn dropped_frames(&self) -> u64 {
        0
    }
}

/// One direction of the in-proc pipe: the channel plus the wake slot its
/// *receiver* registers, flipped by the sender on delivery.
#[derive(Debug, Default)]
struct WakeSlot {
    waker: Mutex<Option<Waker>>,
}

impl WakeSlot {
    fn wake(&self) {
        if let Some(waker) = self.waker.lock().expect("wake slot poisoned").as_ref() {
            waker.wake();
        }
    }
}

/// In-process transport endpoint.
pub struct InProcTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    /// Wake slot our peer's owner registered — we flip it when we send.
    peer_wake: Arc<WakeSlot>,
    /// Wake slot our own owner registers — our peer flips it.
    local_wake: Arc<WakeSlot>,
    dropped: u64,
}

/// Creates a connected in-process transport pair (agent end, RIC end).
/// Each side's egress is the bounded channel itself (4096 frames); a full
/// channel drops instead of blocking.
pub fn in_proc_pair() -> (InProcTransport, InProcTransport) {
    let (a_tx, a_rx) = bounded(4096);
    let (b_tx, b_rx) = bounded(4096);
    let wake_a = Arc::new(WakeSlot::default());
    let wake_b = Arc::new(WakeSlot::default());
    (
        InProcTransport {
            tx: a_tx,
            rx: b_rx,
            peer_wake: Arc::clone(&wake_b),
            local_wake: Arc::clone(&wake_a),
            dropped: 0,
        },
        InProcTransport {
            tx: b_tx,
            rx: a_rx,
            peer_wake: wake_a,
            local_wake: wake_b,
            dropped: 0,
        },
    )
}

impl E2Transport for InProcTransport {
    fn send(&mut self, frame: &[u8]) -> Result<SendOutcome> {
        check_frame_len(frame.len())?;
        match self.tx.try_send(frame.to_vec()) {
            Ok(()) => {
                self.peer_wake.wake();
                Ok(SendOutcome::Sent)
            }
            Err(TrySendError::Full(_)) => {
                self.dropped += 1;
                Ok(SendOutcome::Dropped)
            }
            Err(TrySendError::Disconnected(_)) => {
                Err(XsecError::Io("in-proc peer disconnected".into()))
            }
        }
    }

    fn try_recv(&mut self) -> Result<Option<Vec<u8>>> {
        match self.rx.try_recv() {
            Ok(frame) => Ok(Some(frame)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => {
                Err(XsecError::Io("in-proc peer disconnected".into()))
            }
        }
    }

    fn register_waker(&mut self, waker: Waker) -> Readiness {
        // Frames sent before registration (the agent's Setup Request fires
        // from its constructor) must still surface: wake immediately if
        // anything is already queued.
        let pending = !self.rx.is_empty();
        *self.local_wake.waker.lock().expect("wake slot poisoned") = Some(waker.clone());
        if pending {
            waker.wake();
        }
        Readiness::Event
    }

    fn dropped_frames(&self) -> u64 {
        self.dropped
    }
}

/// Cap on buffered TCP egress bytes before frames are dropped: one frame of
/// the maximum length always fits an empty buffer.
const TCP_EGRESS_CAP: usize = PREFIX_LEN + MAX_FRAME_LEN;

/// Most bytes one socket read asks for.
const READ_CHUNK: usize = 64 * 1024;

/// Splits the bytes a stream delivers back into frames. `buf[start..end]`
/// is received and not yet handed out; it never exceeds one partial frame
/// plus one read, because the socket is only read when no whole frame is
/// buffered.
#[derive(Default)]
struct FrameSplitter {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameSplitter {
    /// Room for the next read, with any partial frame moved to the front.
    fn spare(&mut self) -> &mut [u8] {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.buf.len() < self.end + READ_CHUNK {
            self.buf.resize(self.end + READ_CHUNK, 0);
        }
        &mut self.buf[self.end..]
    }

    /// Marks the first `n` bytes of [`FrameSplitter::spare`] as received.
    fn advance(&mut self, n: usize) {
        self.end += n;
    }

    /// Copies out the next frame if all of it has arrived. A length prefix
    /// over [`MAX_FRAME_LEN`] is an error and stays one: the stream cannot
    /// be resynchronised, so the connection should be dropped.
    fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        let pending = &self.buf[self.start..self.end];
        let Some(prefix) = pending.first_chunk::<PREFIX_LEN>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(*prefix) as usize;
        check_frame_len(len)?;
        let Some(frame) = pending.get(PREFIX_LEN..PREFIX_LEN + len) else {
            return Ok(None);
        };
        self.start += PREFIX_LEN + len;
        Ok(Some(frame.to_vec()))
    }
}

/// TCP transport endpoint with length-prefix framing, fully nonblocking in
/// both directions: reads surface `WouldBlock` as "no frame yet", writes
/// land in a bounded egress buffer flushed opportunistically, so a stalled
/// peer can never block the reactor.
pub struct TcpTransport {
    stream: TcpStream,
    ingress: FrameSplitter,
    /// Framed bytes awaiting the socket; `egress_pos` marks the written
    /// prefix still pending removal.
    egress: Vec<u8>,
    egress_pos: usize,
    egress_cap: usize,
    dropped: u64,
}

impl TcpTransport {
    /// Wraps a connected stream, switching it to nonblocking mode.
    pub fn new(stream: TcpStream) -> Result<Self> {
        stream.set_nonblocking(true).map_err(|e| XsecError::Io(e.to_string()))?;
        stream.set_nodelay(true).map_err(|e| XsecError::Io(e.to_string()))?;
        Ok(TcpTransport {
            stream,
            ingress: FrameSplitter::default(),
            egress: Vec::new(),
            egress_pos: 0,
            egress_cap: TCP_EGRESS_CAP,
            dropped: 0,
        })
    }

    /// Connects to a listening E2 termination.
    pub fn connect(addr: &str) -> Result<Self> {
        let stream = TcpStream::connect(addr).map_err(|e| XsecError::Io(e.to_string()))?;
        Self::new(stream)
    }

    /// Bytes currently buffered for the socket.
    pub fn egress_len(&self) -> usize {
        self.egress.len() - self.egress_pos
    }

    /// Writes as much buffered egress as the socket accepts right now.
    fn flush_egress(&mut self) -> Result<bool> {
        while self.egress_pos < self.egress.len() {
            match self.stream.write(&self.egress[self.egress_pos..]) {
                Ok(0) => return Err(XsecError::Io("connection closed".into())),
                Ok(n) => self.egress_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(XsecError::Io(e.to_string())),
            }
        }
        if self.egress_pos == self.egress.len() {
            self.egress.clear();
            self.egress_pos = 0;
            Ok(true)
        } else {
            // Reclaim the written prefix so the buffer stays bounded by
            // the unsent bytes, not the lifetime total.
            if self.egress_pos > 0 {
                self.egress.drain(..self.egress_pos);
                self.egress_pos = 0;
            }
            Ok(false)
        }
    }
}

impl E2Transport for TcpTransport {
    fn send(&mut self, frame: &[u8]) -> Result<SendOutcome> {
        check_frame_len(frame.len())?;
        let framed_len = PREFIX_LEN + frame.len();
        if self.egress_len() + framed_len > self.egress_cap {
            // Try to make room first — the socket may have drained.
            self.flush_egress()?;
            if self.egress_len() + framed_len > self.egress_cap {
                self.dropped += 1;
                return Ok(SendOutcome::Dropped);
            }
        }
        self.egress.put_prefixed::<PREFIX_LEN>(frame)?;
        self.flush_egress()?;
        Ok(SendOutcome::Sent)
    }

    fn try_recv(&mut self) -> Result<Option<Vec<u8>>> {
        // Piggyback egress progress on every poll so buffered writes drain
        // even when the caller only reads.
        self.flush_egress()?;
        // Drain one buffered frame first.
        if let Some(frame) = self.ingress.next_frame()? {
            return Ok(Some(frame));
        }
        match self.stream.read(self.ingress.spare()) {
            Ok(0) => Err(XsecError::Io("connection closed".into())),
            Ok(n) => {
                self.ingress.advance(n);
                self.ingress.next_frame()
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(None),
            Err(e) => Err(XsecError::Io(e.to_string())),
        }
    }

    fn flush(&mut self) -> Result<bool> {
        self.flush_egress()
    }

    fn dropped_frames(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::E2apPdu;
    use proptest::prelude::*;
    use std::net::TcpListener;
    use std::time::Duration as StdDuration;

    /// `payloads` on a stream, framed as `TcpTransport::send` frames them.
    fn framed(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut stream = Vec::new();
        for p in payloads {
            stream.put_prefixed::<PREFIX_LEN>(p).unwrap();
        }
        stream
    }

    /// Delivers `stream` to `splitter` in reads of `chunk` bytes, popping
    /// frames after each the way `try_recv` does.
    fn deliver(splitter: &mut FrameSplitter, stream: &[u8], chunk: usize) -> Result<Vec<Vec<u8>>> {
        let mut frames = Vec::new();
        for read in stream.chunks(chunk) {
            splitter.spare()[..read.len()].copy_from_slice(read);
            splitter.advance(read.len());
            while let Some(frame) = splitter.next_frame()? {
                frames.push(frame);
            }
        }
        Ok(frames)
    }

    #[test]
    fn framing_round_trip_with_fragmented_delivery() {
        let payloads: Vec<Vec<u8>> = vec![
            vec![],
            vec![1],
            vec![2; 300],
            E2apPdu::SetupResponse { accepted: vec![142] }.encode(),
        ];
        let stream = framed(&payloads);
        // One byte per read — the pathological TCP case — and all at once.
        for chunk in [1, stream.len()] {
            let mut splitter = FrameSplitter::default();
            assert_eq!(deliver(&mut splitter, &stream, chunk).unwrap(), payloads);
            assert_eq!(splitter.end - splitter.start, 0, "bytes left buffered");
        }
    }

    #[test]
    fn framing_rejects_oversized_length_prefix() {
        let mut splitter = FrameSplitter::default();
        let hostile = (MAX_FRAME_LEN as u32 + 1).to_be_bytes();
        assert!(deliver(&mut splitter, &hostile, 4).is_err());
        // The stream cannot be resynchronised: the error stays, and no body
        // byte was buffered for the claimed length.
        assert!(splitter.next_frame().is_err());
        assert!(splitter.buf.len() <= PREFIX_LEN + READ_CHUNK);
        // The cap itself is a legal length: just not complete yet.
        let mut splitter = FrameSplitter::default();
        let legal = (MAX_FRAME_LEN as u32).to_be_bytes();
        assert_eq!(deliver(&mut splitter, &legal, 4).unwrap(), Vec::<Vec<u8>>::new());
    }

    /// One cap, both transports, the same error: a `MAX_FRAME_LEN` message
    /// is carried, one byte more is refused by `send` before anything is
    /// queued.
    #[test]
    fn both_transports_enforce_the_one_frame_cap() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut server = TcpTransport::new(stream).unwrap();
            loop {
                if let Some(frame) = server.try_recv().unwrap() {
                    return frame.len();
                }
                std::thread::yield_now();
            }
        });
        let mut tcp = TcpTransport::connect(&addr.to_string()).unwrap();
        let (mut in_proc, mut peer) = in_proc_pair();

        let over = vec![0x5A; MAX_FRAME_LEN + 1];
        let tcp_err = tcp.send(&over).unwrap_err();
        assert_eq!(tcp_err, in_proc.send(&over).unwrap_err());
        assert_eq!(tcp_err.category(), "codec");
        assert_eq!(tcp.egress_len(), 0, "a refused frame was queued");
        assert_eq!(peer.try_recv().unwrap(), None, "a refused frame was delivered");

        let max = &over[..MAX_FRAME_LEN];
        assert_eq!(in_proc.send(max).unwrap(), SendOutcome::Sent);
        assert_eq!(peer.try_recv().unwrap().map(|f| f.len()), Some(MAX_FRAME_LEN));
        assert_eq!(tcp.send(max).unwrap(), SendOutcome::Sent);
        while !tcp.flush().unwrap() {
            std::thread::yield_now();
        }
        assert_eq!(server.join().unwrap(), MAX_FRAME_LEN);
    }

    #[test]
    fn in_proc_round_trip_both_directions() {
        let (mut a, mut b) = in_proc_pair();
        assert_eq!(a.send(b"hello").unwrap(), SendOutcome::Sent);
        assert_eq!(a.send(b"world").unwrap(), SendOutcome::Sent);
        assert_eq!(b.try_recv().unwrap(), Some(b"hello".to_vec()));
        assert_eq!(b.try_recv().unwrap(), Some(b"world".to_vec()));
        assert_eq!(b.try_recv().unwrap(), None);
        b.send(b"ack").unwrap();
        assert_eq!(a.try_recv().unwrap(), Some(b"ack".to_vec()));
    }

    #[test]
    fn in_proc_disconnection_is_an_error() {
        let (mut a, b) = in_proc_pair();
        drop(b);
        assert!(a.send(b"x").is_err());
    }

    #[test]
    fn in_proc_send_wakes_the_registered_peer() {
        let (mut a, mut b) = in_proc_pair();
        let set = WakeSet::new();
        assert_eq!(b.register_waker(set.waker(7)), Readiness::Event);
        let mut ready = Vec::new();
        set.drain_into(&mut ready);
        assert!(ready.is_empty(), "no wake before any send");

        a.send(b"x").unwrap();
        a.send(b"y").unwrap();
        set.drain_into(&mut ready);
        // Two sends coalesce into one wake until the queue is drained.
        assert_eq!(ready, vec![7]);

        // After a drain the flag is clear: the next send wakes again.
        ready.clear();
        a.send(b"z").unwrap();
        set.drain_into(&mut ready);
        assert_eq!(ready, vec![7]);
    }

    #[test]
    fn in_proc_registration_after_send_wakes_immediately() {
        // The agent's Setup Request is sent from its constructor, before
        // the platform registers the conn — the frame must still wake.
        let (mut a, mut b) = in_proc_pair();
        a.send(b"setup").unwrap();
        let set = WakeSet::new();
        b.register_waker(set.waker(0));
        let mut ready = Vec::new();
        set.drain_into(&mut ready);
        assert_eq!(ready, vec![0]);
    }

    /// `(user, system)` CPU time of the calling thread, in clock ticks.
    #[cfg(target_os = "linux")]
    fn thread_cpu_ticks() -> (u64, u64) {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
        // Fields after the parenthesised command name, which may hold spaces.
        let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 2..].split(' ').collect();
        (fields[11].parse().unwrap(), fields[12].parse().unwrap())
    }

    /// The frame hop makes no system call: a million send + receive pairs on
    /// a connection registered with the reactor leave the thread's system
    /// time where it was, give or take a page fault. (A `futex_wake` per
    /// `try_send` and per `try_recv` is two million calls: 25 ticks and up
    /// at `USER_HZ` = 100, in any build profile.)
    #[cfg(target_os = "linux")]
    #[test]
    fn in_proc_frame_hop_makes_no_system_call() {
        let (mut a, mut b) = in_proc_pair();
        let set = WakeSet::new();
        b.register_waker(set.waker(0));
        let mut ready = Vec::new();
        let frame = [0x5A; 64];
        let (user_before, system_before) = thread_cpu_ticks();
        for _ in 0..1_000_000 {
            a.send(&frame).unwrap();
            set.drain_into(&mut ready);
            assert_eq!(b.try_recv().unwrap().map(|f| f.len()), Some(frame.len()));
        }
        let (user, system) = thread_cpu_ticks();
        let (user, system) = (user - user_before, system - system_before);
        println!("1M frame hops: {user} user ticks, {system} system ticks");
        assert_eq!(ready.len(), 1_000_000);
        assert!(system <= 8, "{system} of {} ticks in the kernel", user + system);
    }

    #[test]
    fn in_proc_full_channel_drops_and_counts() {
        let (mut a, _b) = in_proc_pair();
        let mut outcomes = Vec::new();
        for _ in 0..4100 {
            outcomes.push(a.send(b"f").unwrap());
        }
        assert_eq!(outcomes.iter().filter(|o| **o == SendOutcome::Dropped).count(), 4);
        assert_eq!(a.dropped_frames(), 4);
    }

    #[test]
    fn tcp_round_trip_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut server = TcpTransport::new(stream).unwrap();
            // Echo three frames back.
            let mut echoed = 0;
            while echoed < 3 {
                if let Some(frame) = server.try_recv().unwrap() {
                    server.send(&frame).unwrap();
                    echoed += 1;
                }
            }
            while !server.flush().unwrap() {}
        });

        let mut client = TcpTransport::connect(&addr.to_string()).unwrap();
        let frames: Vec<Vec<u8>> = vec![vec![], vec![7; 5], vec![1, 2, 3]];
        for f in &frames {
            assert_eq!(client.send(f).unwrap(), SendOutcome::Sent);
        }
        let mut received = Vec::new();
        while received.len() < 3 {
            if let Some(frame) = client.try_recv().unwrap() {
                received.push(frame);
            }
        }
        assert_eq!(received, frames);
        handle.join().unwrap();
    }

    #[test]
    fn tcp_try_recv_without_data_returns_none() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (_stream, _) = listener.accept().unwrap();
            std::thread::sleep(StdDuration::from_millis(50));
        });
        let mut client = TcpTransport::connect(&addr.to_string()).unwrap();
        assert_eq!(client.try_recv().unwrap(), None);
        handle.join().unwrap();
    }

    #[test]
    fn tcp_stalled_reader_never_blocks_the_sender() {
        // Regression: a peer that accepts the connection but never reads
        // must not block `send` — the kernel buffer fills, egress buffers
        // up to the cap, and further frames drop with a count.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (stop_tx, stop_rx) = bounded::<()>(1);
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            // Hold the socket open without reading until told to stop.
            let _ = stop_rx.recv();
            drop(stream);
        });

        let mut client = TcpTransport::connect(&addr.to_string()).unwrap();
        client.egress_cap = 64 * 1024;
        let frame = vec![0xABu8; 8 * 1024];
        let mut dropped = 0u64;
        // Push far more than the egress cap + kernel buffer can hold; every
        // call must return promptly (drop, not block).
        let start = std::time::Instant::now();
        for _ in 0..2000 {
            if client.send(&frame).unwrap() == SendOutcome::Dropped {
                dropped += 1;
            }
        }
        assert!(dropped > 0, "egress never filled — cap not enforced");
        assert_eq!(client.dropped_frames(), dropped);
        assert!(client.egress_len() <= 64 * 1024, "egress exceeded its cap");
        assert!(
            start.elapsed() < StdDuration::from_secs(10),
            "sender blocked on a stalled reader"
        );
        stop_tx.send(()).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn tcp_partial_frames_reassemble_across_reads() {
        // A frame trickling in over many small writes must reassemble; a
        // frame split across the egress boundary must arrive intact.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let expect = payload.clone();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let framed = framed(&[payload]);
            // Dribble the frame out in 7-byte slices.
            for chunk in framed.chunks(7) {
                stream.write_all(chunk).unwrap();
                stream.flush().unwrap();
            }
        });
        let mut client = TcpTransport::connect(&addr.to_string()).unwrap();
        let deadline = std::time::Instant::now() + StdDuration::from_secs(10);
        loop {
            if let Some(frame) = client.try_recv().unwrap() {
                assert_eq!(frame, expect);
                break;
            }
            assert!(std::time::Instant::now() < deadline, "frame never reassembled");
            std::thread::yield_now();
        }
        handle.join().unwrap();
    }

    /// Arbitrary mitigation action assembled from primitive draws (the
    /// vendored proptest stub has no `Arbitrary` derive).
    fn build_action(
        id: u32,
        ttl_us: u64,
        variant: u8,
        conn: u32,
        word: u16,
        span_us: u64,
    ) -> xsec_control::ControlAction {
        use xsec_control::MitigationAction as M;
        use xsec_types::{CellId, Duration, EstablishmentCause, ReleaseCause, Rnti};
        let action = match variant % 5 {
            0 => M::ReleaseUe {
                conn,
                cause: [
                    ReleaseCause::Normal,
                    ReleaseCause::RadioLinkFailure,
                    ReleaseCause::NetworkAbort,
                    ReleaseCause::Congestion,
                ][word as usize % 4],
            },
            1 => M::BlacklistRnti { rnti: Rnti(word) },
            2 => M::ForceReauth { conn },
            3 => M::QuarantineCell { cell: CellId(conn) },
            _ => M::RateLimitCause {
                cause: EstablishmentCause::ALL[word as usize % EstablishmentCause::ALL.len()],
                max_setups: word,
                window: Duration::from_micros(span_us),
            },
        };
        xsec_control::ControlAction {
            id,
            ttl: Duration::from_micros(ttl_us),
            action,
            trace: span_us.is_multiple_of(2).then_some(span_us),
        }
    }

    proptest! {
        #[test]
        fn prop_framing_survives_arbitrary_chunking(
            payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..8),
            chunk_size in 1usize..16,
        ) {
            let mut splitter = FrameSplitter::default();
            let seen = deliver(&mut splitter, &framed(&payloads), chunk_size).unwrap();
            prop_assert_eq!(seen, payloads);
        }

        /// The splitter is total: garbage in any chunking gives frames that,
        /// framed again, are exactly the bytes consumed — or the oversize
        /// error — and never buffers past one frame and one read.
        #[test]
        fn prop_splitter_is_total_on_garbage(
            stream in proptest::collection::vec(any::<u8>(), 0..256),
            zero_high_bytes in any::<bool>(),
            chunk_size in 1usize..32,
        ) {
            let mut stream = stream;
            if zero_high_bytes {
                // Keep most prefixes small so garbage also parses as frames.
                stream.iter_mut().step_by(2).for_each(|b| *b = 0);
            }
            let mut splitter = FrameSplitter::default();
            match deliver(&mut splitter, &stream, chunk_size) {
                Ok(frames) => {
                    let consumed = framed(&frames);
                    prop_assert_eq!(&consumed[..], &stream[..consumed.len()]);
                    prop_assert_eq!(splitter.end - splitter.start, stream.len() - consumed.len());
                }
                Err(e) => prop_assert_eq!(e.category(), "codec"),
            }
            prop_assert!(splitter.buf.len() <= PREFIX_LEN + MAX_FRAME_LEN + 2 * READ_CHUNK);
        }

        /// The full control path a mitigation takes on the wire: action TLV →
        /// E2AP Control Request → stream framing → deframe → E2AP decode →
        /// action TLV decode. Every arbitrary action must survive unchanged.
        #[test]
        fn prop_action_round_trip_through_e2ap_and_framing(
            id in any::<u32>(),
            ttl_us in any::<u64>(),
            variant in any::<u8>(),
            conn in any::<u32>(),
            word in any::<u16>(),
            span_us in any::<u64>(),
        ) {
            let action = build_action(id, ttl_us, variant, conn, word, span_us);
            let pdu = E2apPdu::ControlRequest { ran_function: 142, payload: action.encode() };

            let mut splitter = FrameSplitter::default();
            let frames = deliver(&mut splitter, &framed(&[pdu.encode()]), READ_CHUNK).unwrap();
            prop_assert_eq!(frames.len(), 1);

            let decoded = E2apPdu::decode(&frames[0]).unwrap();
            let E2apPdu::ControlRequest { ran_function, payload } = decoded else {
                panic!("wrong PDU kind");
            };
            prop_assert_eq!(ran_function, 142);
            prop_assert_eq!(
                xsec_control::ControlAction::decode(&payload).unwrap(),
                action
            );
        }
    }
}
