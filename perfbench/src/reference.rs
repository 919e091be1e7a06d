//! The host-speed reference: a loopback echo served by the benchmark's
//! own threads, pinged while the daemon is idle during the timed window.
//!
//! On a shared 2-vCPU host every latency moves with the host's load.
//! Runs a few minutes apart differed by up to 35% in every read,
//! freshness and fold time at once, and the middle half of ten runs
//! spread by up to a third of the median. The echo has the daemon's
//! connection path (a one-shot loopback connection, an acceptor thread
//! handing the stream to a worker over a channel, a read and a write) but
//! none of its code, so a change to the program cannot move it, while
//! the host's speed moves it with the daemon's latencies. The end-to-end
//! times are reported at the reference speed,
//! `time × REFERENCE_ECHO_MS / echo p50`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

/// The echo round trip, in ms, that times are reported against: a round
/// figure near the window echo p50s of the 2-vCPU Xeon VM the benchmark
/// was tuned on (0.09–0.12 ms).
pub const REFERENCE_ECHO_MS: f64 = 0.125;
/// Bytes each ping sends and gets back.
const PING_BYTES: usize = 64;

/// A loopback echo server: one acceptor thread and one worker thread.
/// Dropping it stops both and waits for them.
pub struct Echo {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    worker: Option<JoinHandle<()>>,
}

impl Echo {
    /// Bind an ephemeral loopback port and start serving.
    pub fn start() -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("echo-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        // A failed accept costs that ping its answer; the
                        // pinger sees the error.
                        if let Ok(stream) = stream {
                            if tx.send(stream).is_err() {
                                break;
                            }
                        }
                    }
                })?
        };
        let worker = std::thread::Builder::new()
            .name("echo-worker".into())
            .spawn(move || {
                while let Ok(mut stream) = rx.recv() {
                    let mut buf = [0u8; PING_BYTES];
                    if stream.read_exact(&mut buf).is_ok() {
                        let _ = stream.write_all(&buf);
                    }
                }
            })?;
        Ok(Self {
            addr,
            stop,
            acceptor: Some(acceptor),
            worker: Some(worker),
        })
    }

    /// One round trip on a fresh connection, in ms.
    pub fn ping(&self) -> io::Result<f64> {
        let t = Instant::now();
        let mut stream = TcpStream::connect(self.addr)?;
        stream.write_all(&[0x2a; PING_BYTES])?;
        let mut back = [0u8; PING_BYTES];
        stream.read_exact(&mut back)?;
        Ok(t.elapsed().as_secs_f64() * 1e3)
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake the acceptor with a connection it will drop; it then drops
        // the channel, which ends the worker.
        let _ = TcpStream::connect(self.addr);
        for handle in [self.acceptor.take(), self.worker.take()]
            .into_iter()
            .flatten()
        {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_answers_and_stops() {
        let echo = Echo::start().expect("echo starts");
        for _ in 0..3 {
            let ms = echo.ping().expect("echo answers");
            assert!(ms > 0.0 && ms < 1e4);
        }
        let addr = echo.addr;
        drop(echo);
        // Both threads have ended and the listener is closed.
        assert!(TcpStream::connect(addr).is_err());
    }
}
