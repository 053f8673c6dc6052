//! The one connection engine both tiers run on (DESIGN.md §15).
//!
//! A tier — the ingest server or the cluster aggregator — is a
//! [`FrameHandler`]: it opens a per-connection session at accept, decides
//! the reply to each frame, and keeps its own accounting. Everything else
//! is decided here, once: accepting, framing, the idle and mid-frame
//! deadlines, reaping, the `Error` reply to garbled bytes, and close
//! logging. [`serve`] picks the loop by platform: the epoll reactor
//! (`reactor.rs`) on Linux/x86_64, the portable thread-per-connection
//! loop ([`serve_portable`]) elsewhere. Both loops are generic over the
//! handler (static dispatch), and the portable one compiles — and is
//! tested — on every platform.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use felip_sync::thread;

use crate::session::FrameOutcome;
use crate::transport::{RecvOutcome, TcpTransport, Transport};
use crate::wire::{Frame, FrameView, WireError};

/// The per-connection deadlines both loops enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadlines {
    /// Finishing a frame once its first byte arrived; a peer stalled
    /// mid-frame longer than this is answered an `Error` and dropped.
    pub read: Duration,
    /// Writing a reply frame (portable loop; the reactor never blocks).
    pub write: Duration,
    /// How long a connection may sit with no traffic before it is reaped.
    pub idle: Duration,
}

/// A serve hot-path stage whose latency a tier may record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Draining the accept queue (per wakeup that accepted).
    Accept,
    /// Socket read + frame decode + CRC (per frame).
    Decode,
    /// The handler's decision (per frame).
    Ingest,
    /// Reply encode (per frame).
    Ack,
    /// Write flush (per wakeup).
    Flush,
}

/// Why a connection ended.
#[derive(Debug)]
pub enum Closed {
    /// Clean EOF or server shutdown.
    Clean,
    /// No traffic for the whole idle window. Safe: a returning peer
    /// reconnects and resyncs its cursor from the `Hello` ack.
    Reaped,
    /// Protocol or transport failure.
    Error(WireError),
}

/// One tier's protocol, as the connection loops see it.
pub trait FrameHandler: Sync {
    /// Per-connection protocol state.
    type Session: Send;

    /// Whether the serving thread pins itself to core 0 (the reactor's
    /// placement policy; ignored by the portable loop).
    const PIN_LOOP: bool;

    /// Prefix of the diagnostic line an error close logs.
    const CLOSE_LOG: &'static str;

    /// Opens a session for a freshly accepted connection and counts it.
    fn open(&self) -> Self::Session;

    /// Decides the reply to one checksum-verified frame.
    fn on_frame(&self, session: &mut Self::Session, frame: FrameView<'_>) -> FrameOutcome;

    /// The handshaken peer id (0 before `Hello`), stamped on flight events.
    fn peer_id(session: &Self::Session) -> u64;

    /// Counts a frame the loop could not decode (or that stalled
    /// mid-arrival) and returns the `Error` reply to send before closing.
    fn reject(&self, e: &WireError) -> Frame;

    /// Records one stage latency observation, in nanoseconds.
    fn stage(&self, stage: Stage, ns: u64);

    /// Final accounting for a closing connection.
    fn on_close(&self, session: Self::Session, closed: &Closed);
}

/// Flight-event codes for [`felip_obs::flight::KIND_CONN`] records.
pub(crate) const CONN_OPEN: u16 = 0;
/// Clean close (EOF, reap, shutdown).
const CONN_CLOSE_CLEAN: u16 = 1;
/// Close after a protocol/transport error.
const CONN_CLOSE_ERROR: u16 = 2;

/// Serves `listener` until `stop` returns true, on the platform's loop.
pub fn serve<H: FrameHandler, F: Fn() -> bool + Sync>(
    listener: &TcpListener,
    handler: &H,
    deadlines: &Deadlines,
    stop: &F,
) -> io::Result<()> {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    return crate::reactor::run_reactor(listener, handler, deadlines, stop);
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    return serve_portable(listener, handler, deadlines, stop);
}

/// The portable loop: one scoped thread per connection over a blocking,
/// deadline-aware [`TcpTransport`]. Returns once `stop` flips and every
/// connection thread has seen it.
pub fn serve_portable<H: FrameHandler, F: Fn() -> bool + Sync>(
    listener: &TcpListener,
    handler: &H,
    deadlines: &Deadlines,
    stop: &F,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    thread::scope(|scope| {
        let mut conns = Vec::new();
        while !stop() {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let mut session = handler.open();
                    felip_obs::flight::flight().record(
                        felip_obs::flight::KIND_CONN,
                        CONN_OPEN,
                        conns.len() as u64,
                        0,
                    );
                    conns.push(scope.spawn(move || {
                        let closed = serve_conn(&stream, handler, &mut session, deadlines, stop);
                        finish(handler, session, closed);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        // Stop accepting (done); in-flight connections see `stop` within
        // one transport poll and finish.
        for c in conns {
            let _ = c.join();
        }
        Ok(())
    })
}

/// Serves one connection of the portable loop until it closes.
fn serve_conn<H: FrameHandler, F: Fn() -> bool>(
    stream: &TcpStream,
    handler: &H,
    session: &mut H::Session,
    deadlines: &Deadlines,
    stop: &F,
) -> Closed {
    // Some platforms hand out accepted sockets that inherit the
    // listener's non-blocking mode; the transport wants blocking reads
    // bounded by its own poll timeout.
    if let Err(e) = stream.set_nonblocking(false) {
        return Closed::Error(WireError::Io(e));
    }
    let mut transport = match TcpTransport::new(
        stream,
        stop,
        deadlines.read,
        deadlines.write,
        deadlines.idle,
    ) {
        Ok(t) => t,
        Err(e) => return Closed::Error(e),
    };
    loop {
        match transport.recv() {
            RecvOutcome::Frame(frame) => {
                let outcome = handler.on_frame(session, frame.view());
                felip_obs::flight::flight().record(
                    felip_obs::flight::KIND_FRAME,
                    frame.kind as u16,
                    H::peer_id(session),
                    frame.payload.len() as u64,
                );
                match outcome.close {
                    // Closing anyway: the error reply is best-effort.
                    Some(e) => {
                        let _ = transport.send(&outcome.reply);
                        return Closed::Error(e);
                    }
                    None => {
                        if let Err(e) = transport.send(&outcome.reply) {
                            return Closed::Error(e);
                        }
                    }
                }
            }
            RecvOutcome::Eof | RecvOutcome::Shutdown => return Closed::Clean,
            RecvOutcome::NoData => continue,
            RecvOutcome::Idle => return Closed::Reaped,
            RecvOutcome::Err(e) => {
                // Garbled framing or a mid-frame stall: tell the peer
                // (best effort) and drop the connection.
                let _ = transport.send(&handler.reject(&e));
                return Closed::Error(e);
            }
        }
    }
}

/// Final accounting for a closing connection, shared by both loops: the
/// flight record, the close log line, then the tier's own counters.
pub(crate) fn finish<H: FrameHandler>(handler: &H, session: H::Session, closed: Closed) {
    match &closed {
        Closed::Error(e) => {
            let msg = format!("{}: {e}", H::CLOSE_LOG);
            felip_obs::flight::flight().record(
                felip_obs::flight::KIND_CONN,
                CONN_CLOSE_ERROR,
                felip_obs::flight::fnv1a(&msg),
                0,
            );
            felip_obs::diag::line(&msg);
        }
        Closed::Clean | Closed::Reaped => {
            felip_obs::flight::flight().record(
                felip_obs::flight::KIND_CONN,
                CONN_CLOSE_CLEAN,
                0,
                0,
            );
        }
    }
    handler.on_close(session, &closed);
}
