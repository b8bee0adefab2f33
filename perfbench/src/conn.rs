//! The benchmark's client side of one server connection, split into a
//! send half and a receive half so the open loop can drive them from two
//! threads.  It speaks through the server crate's public codecs
//! (`Request::encode`, `wire2::encode_request`, `Response::parse`,
//! `wire2::decode_response`).

use crate::workload::Wire;
use smartapps_server::wire2::{self, BinMsg, FRAME_HEADER_BYTES};
use smartapps_server::{DoneOutcome, Request, Response, UploadArgs};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a blocked read waits before handing control back, so a
/// stalled server cannot hang the benchmark.
pub const READ_TICK: Duration = Duration::from_millis(200);

pub struct Sender {
    wire: Wire,
    stream: TcpStream,
}

pub struct Receiver {
    wire: Wire,
    reader: BufReader<TcpStream>,
    line: String,
}

pub fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Sender {
    /// Encode `req` for this connection's wire and write it whole.
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        match self.wire {
            Wire::Text => {
                let mut line = req.encode();
                line.push('\n');
                self.stream.write_all(line.as_bytes())
            }
            Wire::Binary => self.stream.write_all(&wire2::encode_request(req)),
        }
    }
}

impl Receiver {
    /// Block until the next message's first bytes have arrived.  Returns
    /// `Ok(false)` when [`READ_TICK`] passed without any.
    pub fn wait_readable(&mut self) -> io::Result<bool> {
        match self.reader.fill_buf() {
            Ok([]) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Ok(_) => Ok(true),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Read and decode the next response.  Unsolicited metrics frames are
    /// skipped.
    pub fn recv(&mut self) -> io::Result<Response> {
        loop {
            match self.wire {
                Wire::Text => {
                    self.line.clear();
                    let n = self.reader.read_line(&mut self.line)?;
                    if n == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed the connection",
                        ));
                    }
                    return Response::parse(&self.line)
                        .map_err(|e| invalid(format!("unparsable response: {e}")));
                }
                Wire::Binary => {
                    let mut head = [0u8; FRAME_HEADER_BYTES];
                    self.reader.read_exact(&mut head)?;
                    let len = u32::from_le_bytes(head);
                    if len == 0 || len > wire2::DEFAULT_MAX_FRAME_BYTES {
                        return Err(invalid(format!("bad frame length {len}")));
                    }
                    let mut frame = vec![0u8; len as usize];
                    self.reader.read_exact(&mut frame)?;
                    match wire2::decode_response(frame[0], &frame[1..])
                        .map_err(|e| invalid(format!("unparsable frame: {e}")))?
                    {
                        BinMsg::Response(r) => return Ok(*r),
                        BinMsg::Metrics(_) => continue,
                    }
                }
            }
        }
    }

    /// The next response, waiting at most until `deadline` for it to
    /// start arriving; `what` names the request in the error.
    pub fn recv_by(&mut self, deadline: Instant, what: &str) -> io::Result<Response> {
        while !self.wait_readable()? {
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("the server did not answer the {what} in time"),
                ));
            }
        }
        self.recv()
    }
}

/// How long set-up exchanges (upgrade, upload, first jobs) may wait for
/// an answer.
pub const ANSWER_WITHIN: Duration = Duration::from_secs(30);

/// Open one connection; a binary one negotiates wire v2 first.
pub fn connect(addr: SocketAddr, wire: Wire) -> io::Result<(Sender, Receiver)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TICK))?;
    let mut tx = Sender {
        wire: Wire::Text,
        stream: stream.try_clone()?,
    };
    let mut rx = Receiver {
        wire: Wire::Text,
        reader: BufReader::new(stream),
        line: String::new(),
    };
    if wire == Wire::Binary {
        tx.send(&Request::UpgradeBin)?;
        match rx.recv_by(Instant::now() + ANSWER_WITHIN, "upgrade")? {
            Response::Upgraded => {}
            other => return Err(invalid(format!("upgrade answered with {other:?}"))),
        }
        tx.wire = Wire::Binary;
        rx.wire = Wire::Binary;
    }
    Ok((tx, rx))
}

/// Upload a CSR pattern and return the server's handle for it.  Call only
/// with no jobs in flight on the connection.
pub fn upload(tx: &mut Sender, rx: &mut Receiver, args: UploadArgs) -> io::Result<u64> {
    let token = args.token;
    tx.send(&Request::Upload(args))?;
    match rx.recv_by(Instant::now() + ANSWER_WITHIN, "upload")? {
        Response::Uploaded { token: t, handle } if t == token => Ok(handle),
        Response::Done(d) => match d.outcome {
            DoneOutcome::Err { message, .. } => Err(invalid(format!("upload rejected: {message}"))),
            DoneOutcome::Ok { .. } => Err(invalid("a job finished during an upload".into())),
        },
        other => Err(invalid(format!("upload answered with {other:?}"))),
    }
}
