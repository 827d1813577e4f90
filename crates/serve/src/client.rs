//! A small blocking client for the serve protocol.
//!
//! One [`Client`] wraps one TCP connection; requests go out as frames and
//! the matching response frame comes back parsed into the typed
//! [`Response`] halves. [`Client::request_with_retry`] honours the
//! server's backoff contract: retryable rejections are retried after the
//! server-suggested `backoff_ms` (or a default when the server gave
//! none), non-retryable errors surface immediately.

use crate::protocol::{self, parse_response, Response, WireError};
use comet_obs::json::JsonValue;
use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// A connected client.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

/// Anything a request can fail with: transport trouble or a typed
/// server-side rejection.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (daemon down, torn frame, timeout).
    Io(io::Error),
    /// The response frame was not a valid protocol response.
    Protocol(String),
    /// The server answered with a typed error.
    Server(WireError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Server(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl Client {
    /// Connect to a daemon on 127.0.0.1. `TCP_NODELAY` is on: every frame
    /// is already one write (see [`protocol::write_frame`]), so holding it
    /// back to coalesce with later bytes would only add latency.
    pub fn connect(port: u16) -> io::Result<Client> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(600)))?;
        Ok(Client { stream })
    }

    /// Send one request frame and read the matching response frame.
    pub fn request(&mut self, request: &str) -> Result<Response, ClientError> {
        protocol::write_frame(&mut self.stream, request)?;
        let frame = protocol::read_frame(&mut self.stream)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the response",
            ))
        })?;
        parse_response(&frame).map_err(ClientError::Protocol)
    }

    /// Like [`Client::request`], but unwrap the ok half: a typed server
    /// error becomes `Err(ClientError::Server)`.
    pub fn request_ok(&mut self, request: &str) -> Result<JsonValue, ClientError> {
        match self.request(request)? {
            Response::Ok(value) => Ok(value),
            Response::Err(e) => Err(ClientError::Server(e)),
        }
    }

    /// Send a request, retrying retryable rejections up to `max_retries`
    /// times, sleeping the server-suggested backoff (default 100 ms when
    /// the server gave no hint) between attempts. Non-retryable errors
    /// and transport failures surface immediately.
    pub fn request_with_retry(
        &mut self,
        request: &str,
        max_retries: usize,
    ) -> Result<JsonValue, ClientError> {
        let mut attempt = 0;
        loop {
            match self.request(request)? {
                Response::Ok(value) => return Ok(value),
                Response::Err(e) if e.retryable && attempt < max_retries => {
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(e.backoff_ms.unwrap_or(100)));
                }
                Response::Err(e) => return Err(ClientError::Server(e)),
            }
        }
    }
}
