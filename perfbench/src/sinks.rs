//! The levels of the stack a request stream can be sent into, from the
//! wire down to the simulator. Each level calls only the public entry
//! point it is named after, and traces that call.

use crate::load::{Done, Out, Sink};
use crate::peel::Tracer;
use hybriddnn_compiler::CompiledNetwork;
use hybriddnn_model::Tensor;
use hybriddnn_runtime::{InferenceResponse, InferenceService, ResponseHandle, RuntimeError};
use hybriddnn_server::protocol::{Body, Frame, StreamDecoder, MAX_PAYLOAD};
use hybriddnn_server::registry::QuotaGuard;
use hybriddnn_server::Registry;
use hybriddnn_sim::{RunResult, Simulator};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Byte offset of the request id in an encoded frame header.
const REQUEST_ID_AT: usize = 8;

fn response(r: Result<InferenceResponse, RuntimeError>, functional: bool) -> Result<Out, String> {
    r.map(|resp| Out {
        cycles: resp.total_cycles,
        output: functional.then_some(resp.output),
    })
    .map_err(|e| e.to_string())
}

/// Encodes the request frame for each input once; a send copies it and
/// patches the request id.
pub fn encode_requests(inputs: &[Tensor], model_id: u32, functional: bool) -> Vec<Vec<u8>> {
    inputs
        .iter()
        .map(|t| {
            let body = if functional {
                Body::Infer { tensor: t.clone() }
            } else {
                Body::InferTiming { tensor: t.clone() }
            };
            let mut frame = Frame::new(0, body);
            frame.model_id = model_id;
            frame.encode()
        })
        .collect()
}

/// `struct pollfd` of poll(2).
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

/// `struct timespec`.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Waits until one of `fds` is readable or `timeout` passes. Unlike
/// epoll's millisecond timeout, ppoll(2) takes nanoseconds, so the
/// open-loop generator wakes when a request is due rather than up to a
/// millisecond late.
fn wait_readable(fds: &[RawFd], timeout: Duration) -> Result<(), String> {
    let mut pfds: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfds` is a live, initialized array of `pfds.len()`
    // `struct pollfd`s with the C layout; `ts` is a valid timespec that
    // outlives the call; a null sigmask leaves the signal mask as is.
    let n = unsafe { ppoll(pfds.as_mut_ptr(), pfds.len() as u64, &ts, std::ptr::null()) };
    if n < 0 {
        let e = std::io::Error::last_os_error();
        if e.kind() != ErrorKind::Interrupted {
            return Err(format!("ppoll: {e}"));
        }
    }
    Ok(())
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    first_unsent: Option<u64>,
    decoder: StreamDecoder,
}

/// Levels 1 and 2: pipelined connections to a server or router,
/// multiplexed on one thread.
pub struct TcpSink {
    conns: Vec<Conn>,
    fds: Vec<RawFd>,
    frames: Vec<Vec<u8>>,
    tracer: Tracer,
}

impl TcpSink {
    /// Opens `conns` connections to `addr`, sending `frames[input]`.
    ///
    /// # Errors
    /// Connection or poller failures.
    pub fn connect(
        addr: &str,
        conns: usize,
        frames: Vec<Vec<u8>>,
        tracer: Tracer,
    ) -> Result<TcpSink, String> {
        let mut list = Vec::new();
        for _ in 0..conns {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            stream.set_nonblocking(true).map_err(|e| e.to_string())?;
            list.push(Conn {
                stream,
                out: Vec::new(),
                first_unsent: None,
                decoder: StreamDecoder::new(MAX_PAYLOAD),
            });
        }
        Ok(TcpSink {
            fds: list.iter().map(|c| c.stream.as_raw_fd()).collect(),
            conns: list,
            frames,
            tracer,
        })
    }

    /// Writes queued request bytes; returns whether any remain.
    fn flush(&mut self) -> Result<bool, String> {
        let mut pending = false;
        for conn in &mut self.conns {
            let start = Instant::now();
            let mut written = 0;
            while written < conn.out.len() {
                match conn.stream.write(&conn.out[written..]) {
                    Ok(0) => return Err("connection closed while writing".into()),
                    Ok(n) => written += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("write: {e}")),
                }
            }
            if written > 0 {
                if let Some(tag) = conn.first_unsent.take() {
                    self.tracer
                        .child("TcpStream::write", tag, start, Instant::now());
                }
                conn.out.drain(..written);
            }
            pending |= !conn.out.is_empty();
        }
        Ok(pending)
    }

    fn read_all(&mut self, out: &mut Vec<Done>) -> Result<(), String> {
        for conn in &mut self.conns {
            loop {
                match conn.decoder.read_from(&mut conn.stream) {
                    Ok(0) => return Err("connection closed by the server".into()),
                    Ok(_) => {}
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("read: {e}")),
                }
            }
            loop {
                let start = Instant::now();
                let frame = match conn.decoder.next_frame() {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(e) => return Err(format!("decode: {e}")),
                };
                let at = Instant::now();
                self.tracer
                    .child("StreamDecoder::next_frame", frame.request_id, start, at);
                let result = match frame.body {
                    Body::Output(o) => Ok(Out {
                        cycles: o.total_cycles,
                        output: Some(o.tensor),
                    }),
                    Body::Timing(t) => Ok(Out {
                        cycles: t.total_cycles,
                        output: None,
                    }),
                    Body::Error(e) => Err(e.to_string()),
                    other => Err(format!("unexpected {:?} response", other.opcode())),
                };
                out.push(Done {
                    tag: frame.request_id,
                    at,
                    result,
                });
            }
        }
        Ok(())
    }
}

impl Sink for TcpSink {
    fn submit(&mut self, tag: u64, input: usize) -> Result<(), String> {
        let n = self.conns.len() as u64;
        let conn = &mut self.conns[(tag % n) as usize];
        let at = conn.out.len();
        conn.out.extend_from_slice(&self.frames[input]);
        conn.out[at + REQUEST_ID_AT..at + REQUEST_ID_AT + 8].copy_from_slice(&tag.to_le_bytes());
        conn.first_unsent.get_or_insert(tag);
        Ok(())
    }

    fn poll(&mut self, timeout: Duration, out: &mut Vec<Done>) -> Result<(), String> {
        // Unwritten bytes are retried on a short tick rather than by
        // write-readiness registration: the load is two sockets.
        let timeout = if self.flush()? {
            timeout.min(Duration::from_micros(200))
        } else {
            timeout
        };
        wait_readable(&self.fds, timeout)?;
        self.read_all(out)
    }

    fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }
}

/// Level 3: `Registry::submit` with a routed completion channel, as
/// the server's reactors call it.
pub struct RegistrySink {
    registry: Arc<Registry>,
    model_id: u32,
    inputs: Arc<Vec<Tensor>>,
    functional: bool,
    tx: mpsc::Sender<(u64, Result<InferenceResponse, RuntimeError>)>,
    rx: mpsc::Receiver<(u64, Result<InferenceResponse, RuntimeError>)>,
    guards: HashMap<u64, QuotaGuard>,
    refused: Vec<Done>,
    tracer: Tracer,
}

impl RegistrySink {
    /// A sink submitting to `model_id` of `registry`.
    pub fn new(
        registry: Arc<Registry>,
        model_id: u32,
        inputs: Arc<Vec<Tensor>>,
        functional: bool,
        tracer: Tracer,
    ) -> RegistrySink {
        let (tx, rx) = mpsc::channel();
        RegistrySink {
            registry,
            model_id,
            inputs,
            functional,
            tx,
            rx,
            guards: HashMap::new(),
            refused: Vec::new(),
            tracer,
        }
    }
}

impl Sink for RegistrySink {
    fn submit(&mut self, tag: u64, input: usize) -> Result<(), String> {
        let tensor = self.inputs[input].clone();
        let start = Instant::now();
        let admitted = self
            .registry
            .submit(self.model_id, tensor, None, self.tx.clone(), tag);
        let end = Instant::now();
        self.tracer.child("Registry::submit", tag, start, end);
        match admitted {
            Ok(guard) => {
                self.guards.insert(tag, guard);
            }
            Err(e) => self.refused.push(Done {
                tag,
                at: end,
                result: Err(e.to_string()),
            }),
        }
        Ok(())
    }

    fn poll(&mut self, timeout: Duration, out: &mut Vec<Done>) -> Result<(), String> {
        out.append(&mut self.refused);
        let mut next = if out.is_empty() {
            match self.rx.recv_timeout(timeout) {
                Ok(m) => Some(m),
                Err(mpsc::RecvTimeoutError::Timeout) => None,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err("registry completion channel closed".into())
                }
            }
        } else {
            None
        };
        loop {
            let (tag, r) = match next.take() {
                Some(m) => m,
                None => match self.rx.try_recv() {
                    Ok(m) => m,
                    Err(_) => break,
                },
            };
            // The guard holds the quota unit until the response is in.
            self.guards.remove(&tag);
            out.push(Done {
                tag,
                at: Instant::now(),
                result: response(r, self.functional),
            });
        }
        Ok(())
    }

    fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }
}

/// Level 4: `InferenceService::submit` → `ResponseHandle::wait` on a
/// service of its own.
pub struct ServiceSink {
    service: InferenceService,
    inputs: Arc<Vec<Tensor>>,
    functional: bool,
    pending: VecDeque<(u64, ResponseHandle)>,
    refused: Vec<Done>,
    tracer: Tracer,
}

impl ServiceSink {
    /// A sink over a started service.
    pub fn new(
        service: InferenceService,
        inputs: Arc<Vec<Tensor>>,
        functional: bool,
        tracer: Tracer,
    ) -> ServiceSink {
        ServiceSink {
            service,
            inputs,
            functional,
            pending: VecDeque::new(),
            refused: Vec::new(),
            tracer,
        }
    }
}

impl Sink for ServiceSink {
    fn submit(&mut self, tag: u64, input: usize) -> Result<(), String> {
        let tensor = self.inputs[input].clone();
        let start = Instant::now();
        let submitted = self.service.submit(tensor, None);
        let end = Instant::now();
        self.tracer
            .child("InferenceService::submit", tag, start, end);
        match submitted {
            Ok(handle) => self.pending.push_back((tag, handle)),
            Err(e) => self.refused.push(Done {
                tag,
                at: end,
                result: Err(e.to_string()),
            }),
        }
        Ok(())
    }

    fn poll(&mut self, timeout: Duration, out: &mut Vec<Done>) -> Result<(), String> {
        out.append(&mut self.refused);
        if out.is_empty() {
            match self.pending.pop_front() {
                Some((tag, handle)) => {
                    let start = Instant::now();
                    let r = handle.wait();
                    let at = Instant::now();
                    self.tracer.child("ResponseHandle::wait", tag, start, at);
                    out.push(Done {
                        tag,
                        at,
                        result: response(r, self.functional),
                    });
                }
                None => std::thread::sleep(timeout),
            }
        }
        while let Some(r) = self.pending.front().and_then(|(_, h)| h.try_wait()) {
            let (tag, _) = self.pending.pop_front().expect("front just read");
            out.push(Done {
                tag,
                at: Instant::now(),
                result: response(r, self.functional),
            });
        }
        Ok(())
    }

    fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }
}

/// Level 5: `Simulator::run_batch_into` on the calling thread. Requests
/// submitted before a poll run as one batch.
pub struct SimSink {
    sim: Simulator,
    compiled: Arc<CompiledNetwork>,
    inputs: Arc<Vec<Tensor>>,
    functional: bool,
    pending: Vec<(u64, usize)>,
    outs: Vec<RunResult>,
    tracer: Tracer,
}

impl SimSink {
    /// A sink over a simulator session for `compiled`.
    pub fn new(
        sim: Simulator,
        compiled: Arc<CompiledNetwork>,
        inputs: Arc<Vec<Tensor>>,
        functional: bool,
        tracer: Tracer,
    ) -> SimSink {
        SimSink {
            sim,
            compiled,
            inputs,
            functional,
            pending: Vec::new(),
            outs: Vec::new(),
            tracer,
        }
    }
}

impl Sink for SimSink {
    fn submit(&mut self, tag: u64, input: usize) -> Result<(), String> {
        self.pending.push((tag, input));
        Ok(())
    }

    fn poll(&mut self, timeout: Duration, out: &mut Vec<Done>) -> Result<(), String> {
        if self.pending.is_empty() {
            std::thread::sleep(timeout);
            return Ok(());
        }
        let pending = std::mem::take(&mut self.pending);
        // Batch each run of consecutive inputs straight out of the
        // input pool, so the call sees no per-request copies.
        let mut i = 0;
        while i < pending.len() {
            let mut j = i + 1;
            while j < pending.len() && pending[j].1 == pending[j - 1].1 + 1 {
                j += 1;
            }
            let (first, lo) = pending[i];
            let hi = lo + (j - i);
            let start = Instant::now();
            let statuses =
                self.sim
                    .run_batch_into(&self.compiled, &self.inputs[lo..hi], &mut self.outs);
            let at = Instant::now();
            self.tracer
                .child("Simulator::run_batch_into", first, start, at);
            for ((tag, _), (status, run)) in pending[i..j]
                .iter()
                .zip(statuses.into_iter().zip(&self.outs))
            {
                out.push(Done {
                    tag: *tag,
                    at,
                    result: status.map_err(|e| e.to_string()).map(|()| Out {
                        cycles: run.total_cycles,
                        output: self.functional.then(|| run.output.clone()),
                    }),
                });
            }
            i = j;
        }
        Ok(())
    }

    fn synchronous(&self) -> bool {
        true
    }

    fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }
}
