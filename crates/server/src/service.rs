//! # The TCP serve loop
//!
//! Thread-per-connection over one shared [`SessionManager`] guarded by
//! the `server.sessions` [`TrackedMutex`] — queries serialize at the
//! process level (the engine parallelizes internally through its pool),
//! which keeps every durable append totally ordered per session without
//! a second lock level. Acquisition order is always
//! `server.sessions → core.cache.inner / server.wal`; the lock-order
//! sanitizer (feature `lockorder`) watches exactly this.
//!
//! Each connection starts with a hello negotiation (see
//! [`crate::proto`]); after that, frames are dispatched one at a time
//! and every frame gets exactly one reply. Errors answer with an
//! `error` frame and keep the connection alive — only a failed hello,
//! a frame longer than [`MAX_FRAME_BYTES`] (or `bye`/EOF) ends it.

use crate::proto::{negotiate, Request, Response, PROTO_VERSION};
use crate::session::{ServerError, SessionManager};
use ontology::json;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use telemetry::lockorder::TrackedMutex;

/// The longest request frame the server reads, newline included. A
/// client that sends more without a newline is answered `bad_frame` and
/// disconnected, so no connection can grow server memory without bound.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Serve-loop configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// The name sent in `hello_ack` frames.
    pub server_name: String,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            server_name: "oassis-server".into(),
        }
    }
}

/// A running server: the acceptor thread plus its shutdown handle.
pub struct Server {
    addr: SocketAddr,
    manager: Arc<TrackedMutex<SessionManager>>,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving `manager` in a background acceptor
    /// thread; returns once the listener is bound (so [`Server::addr`]
    /// is immediately connectable).
    pub fn spawn(manager: SessionManager, cfg: &ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let manager = Arc::new(TrackedMutex::new("server.sessions", manager));
        let shutdown = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let manager = manager.clone();
            let shutdown = shutdown.clone();
            let server_name = cfg.server_name.clone();
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let manager = manager.clone();
                    let server_name = server_name.clone();
                    // connection threads end at bye/EOF; shutdown only
                    // waits for the acceptor (drivers close their
                    // connections first)
                    std::thread::spawn(move || {
                        let _ = handle_connection(stream, &manager, &server_name);
                    });
                }
            })
        };
        Ok(Server {
            addr,
            manager,
            shutdown,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared session manager (in-process drivers: bench, simtest).
    pub fn manager(&self) -> &Arc<TrackedMutex<SessionManager>> {
        &self.manager
    }

    /// Blocks until the acceptor thread exits (the serve binary's
    /// foreground mode — effectively forever, absent a crash).
    pub fn join(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }

    /// Stops accepting and joins the acceptor thread. The kill/restart
    /// cycle of the smoke test is exactly `shutdown` + a fresh
    /// [`Server::spawn`] over the same WAL root.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // wake the blocking accept with a throwaway connection
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

/// Maps a session-layer error onto its wire code.
fn error_frame(e: &ServerError) -> Response {
    let code = match e {
        ServerError::Engine(_) => "engine",
        ServerError::Wal(_) => "wal",
        ServerError::Protocol(_) => "protocol",
        ServerError::UnknownSession(_) => "unknown_session",
    };
    Response::Error {
        code: code.into(),
        msg: e.to_string(),
    }
}

fn write_frame(stream: &mut TcpStream, resp: &Response) -> io::Result<()> {
    let mut line = resp.to_json().to_string();
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.flush()
}

/// One request frame as read off the wire.
enum Frame {
    /// A line (its newline, if any, still attached).
    Line(String),
    /// The client closed the connection.
    Eof,
    /// More than [`MAX_FRAME_BYTES`] without a newline, or not UTF-8.
    Bad(&'static str),
}

/// Reads one frame, never buffering more than [`MAX_FRAME_BYTES`].
fn read_frame(reader: &mut BufReader<TcpStream>, buf: &mut Vec<u8>) -> io::Result<Frame> {
    buf.clear();
    let n = reader
        .by_ref()
        .take(MAX_FRAME_BYTES as u64)
        .read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(Frame::Eof);
    }
    if n == MAX_FRAME_BYTES && buf.last() != Some(&b'\n') {
        return Ok(Frame::Bad("frame exceeds the size limit"));
    }
    Ok(match String::from_utf8(std::mem::take(buf)) {
        Ok(line) => Frame::Line(line),
        Err(_) => Frame::Bad("frame is not UTF-8"),
    })
}

/// Answers an unreadable frame with `bad_frame` and ends the connection:
/// the reply is followed by a FIN, and input already in flight is
/// drained (bounded by one more frame's worth and a short timeout) so
/// closing does not reset the connection before the client reads it.
fn reject_frame(
    reader: &mut BufReader<TcpStream>,
    stream: &mut TcpStream,
    msg: &str,
) -> io::Result<()> {
    write_frame(
        stream,
        &Response::Error {
            code: "bad_frame".into(),
            msg: msg.into(),
        },
    )?;
    stream.shutdown(Shutdown::Write)?;
    stream.set_read_timeout(Some(std::time::Duration::from_millis(200)))?;
    let _ = io::copy(
        &mut reader.by_ref().take(MAX_FRAME_BYTES as u64),
        &mut io::sink(),
    );
    Ok(())
}

/// One connection: hello handshake, then a frame-reply loop.
fn handle_connection(
    stream: TcpStream,
    manager: &Arc<TrackedMutex<SessionManager>>,
    server_name: &str,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    let mut buf = Vec::new();

    // --- hello
    let line = match read_frame(&mut reader, &mut buf)? {
        Frame::Line(line) => line,
        Frame::Eof => return Ok(()),
        Frame::Bad(msg) => return reject_frame(&mut reader, &mut stream, msg),
    };
    let hello = json::parse(line.trim_end())
        .map_err(json_io)
        .and_then(|j| Request::from_json(&j).map_err(json_io));
    let client_proto = match hello {
        Ok(Request::Hello { proto, .. }) => proto,
        Ok(_) => {
            write_frame(
                &mut stream,
                &Response::Error {
                    code: "bad_frame".into(),
                    msg: "first frame must be hello".into(),
                },
            )?;
            return Ok(());
        }
        Err(_) => {
            write_frame(
                &mut stream,
                &Response::Error {
                    code: "bad_frame".into(),
                    msg: "unparseable hello frame".into(),
                },
            )?;
            return Ok(());
        }
    };
    match negotiate(client_proto) {
        Ok(agreed) => write_frame(
            &mut stream,
            &Response::HelloAck {
                proto: agreed,
                server: server_name.to_string(),
            },
        )?,
        Err(err) => {
            write_frame(&mut stream, &err)?;
            return Ok(());
        }
    }

    // --- frame loop
    loop {
        let line = match read_frame(&mut reader, &mut buf)? {
            Frame::Line(line) => line,
            Frame::Eof => return Ok(()),
            Frame::Bad(msg) => return reject_frame(&mut reader, &mut stream, msg),
        };
        let req = match json::parse(line.trim_end()).and_then(|j| Request::from_json(&j)) {
            Ok(r) => r,
            Err(e) => {
                write_frame(
                    &mut stream,
                    &Response::Error {
                        code: "bad_frame".into(),
                        msg: e.to_string(),
                    },
                )?;
                continue;
            }
        };
        let resp = match req {
            Request::Bye => return Ok(()),
            Request::Hello { proto, .. } => match negotiate(proto) {
                // a re-hello renegotiates (idempotent for well-behaved
                // clients, harmless otherwise)
                Ok(agreed) => Response::HelloAck {
                    proto: agreed,
                    server: server_name.to_string(),
                },
                Err(err) => err,
            },
            Request::Open(spec) => {
                let mut mgr = manager.lock().expect("sessions mutex poisoned"); // PANIC-OK: poisoning means a handler already panicked; propagate it
                match mgr.open(&spec) {
                    Ok(reply) => Response::opened(&spec.name, &reply),
                    Err(e) => error_frame(&e),
                }
            }
            Request::Query { session, spec } => {
                let mut mgr = manager.lock().expect("sessions mutex poisoned"); // PANIC-OK: poisoning means a handler already panicked; propagate it
                match mgr.query(&session, &spec) {
                    Ok(reply) => Response::Result { session, reply },
                    Err(e) => error_frame(&e),
                }
            }
            Request::Recover { session } => {
                let mut mgr = manager.lock().expect("sessions mutex poisoned"); // PANIC-OK: poisoning means a handler already panicked; propagate it
                match mgr.recover(&session) {
                    Ok(queries) => Response::Recovered { session, queries },
                    Err(e) => error_frame(&e),
                }
            }
            Request::Close { session } => {
                let mut mgr = manager.lock().expect("sessions mutex poisoned"); // PANIC-OK: poisoning means a handler already panicked; propagate it
                match mgr.close(&session) {
                    Ok(()) => Response::Closed { session },
                    Err(e) => error_frame(&e),
                }
            }
        };
        write_frame(&mut stream, &resp)?;
    }
}

fn json_io(e: ontology::json::JsonError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// A minimal in-process client for tests, the smoke driver, and the
/// bench harness: one connection, blocking request→reply calls.
pub struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
    /// The protocol version the hello negotiated.
    pub proto: u32,
}

impl Client {
    /// Connects and performs the hello handshake.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut c = Client {
            reader,
            stream,
            proto: 0,
        };
        let ack = c.call(&Request::Hello {
            proto: PROTO_VERSION,
            client: "oassis-client".into(),
        })?;
        match ack {
            Response::HelloAck { proto, .. } => c.proto = proto,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("handshake refused: {other:?}"),
                ))
            }
        }
        Ok(c)
    }

    /// Sends one frame and reads one reply.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        let mut line = req.to_json().to_string();
        line.push('\n');
        self.stream.write_all(line.as_bytes())?;
        self.stream.flush()?;
        line.clear();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server hung up",
            ));
        }
        json::parse(line.trim_end())
            .and_then(|j| Response::from_json(&j))
            .map_err(json_io)
    }

    /// Sends `bye` and closes.
    pub fn bye(mut self) -> io::Result<()> {
        let mut line = Request::Bye.to_json().to_string();
        line.push('\n');
        self.stream.write_all(line.as_bytes())?;
        self.stream.flush()
    }
}
