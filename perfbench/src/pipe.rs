//! A pipelined wire-protocol connection. The front end answers the frames
//! of one connection in the order they arrived, so the writer queues a tag
//! per frame and the reader pairs each response with the oldest tag. The
//! two halves may live on different threads (open loop) or on one
//! (closed loop with a window).

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

use bw_serve::{read_frame, WireRequest, WireResponse};

/// What the writer remembers about one frame it sent.
#[derive(Debug)]
pub struct Sent<T> {
    /// The caller's tag.
    pub tag: T,
    /// When encoding began.
    pub start: Instant,
    /// Encoding time, when timing was asked for.
    pub encode_ns: u64,
    /// When the frame was handed to the socket.
    pub written: Instant,
}

/// One response paired with the frame it answers.
#[derive(Debug)]
pub struct Received<T> {
    /// The request side.
    pub sent: Sent<T>,
    /// The decoded response.
    pub response: WireResponse,
    /// When the whole frame had been read.
    pub read: Instant,
    /// Decoding time, when timing was asked for.
    pub decode_ns: u64,
}

/// The sending half.
pub struct PipeWriter<T> {
    stream: TcpStream,
    tags: Sender<Sent<T>>,
    buf: Vec<u8>,
    timed: bool,
}

/// The receiving half.
pub struct PipeReader<T> {
    stream: BufReader<TcpStream>,
    tags: Receiver<Sent<T>>,
    timed: bool,
}

/// Opens one connection and splits it. With `timed`, each frame's encode
/// and decode are timed separately; a read waits at most `read_timeout`.
pub fn connect<T>(
    addr: SocketAddr,
    timed: bool,
    read_timeout: Duration,
) -> std::io::Result<(PipeWriter<T>, PipeReader<T>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(read_timeout))?;
    let (tx, rx) = channel();
    Ok((
        PipeWriter {
            stream: stream.try_clone()?,
            tags: tx,
            buf: Vec::new(),
            timed,
        },
        PipeReader {
            stream: BufReader::new(stream),
            tags: rx,
            timed,
        },
    ))
}

impl<T> PipeWriter<T> {
    /// Encodes and writes one frame, remembering `tag` for the reader.
    pub fn send(&mut self, req: &WireRequest, tag: T) -> std::io::Result<()> {
        let start = Instant::now();
        let payload = req.encode();
        let encode_ns = if self.timed {
            start.elapsed().as_nanos() as u64
        } else {
            0
        };
        self.buf.clear();
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(&payload);
        // The tag is queued before the bytes leave, so the reader always
        // finds it.
        let written = Instant::now();
        self.tags
            .send(Sent {
                tag,
                start,
                encode_ns,
                written,
            })
            .map_err(|_| std::io::Error::other("reader half dropped"))?;
        self.stream.write_all(&self.buf)
    }
}

impl<T> PipeReader<T> {
    /// Reads the next response and pairs it with its request.
    pub fn recv(&mut self) -> std::io::Result<Received<T>> {
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "front end closed")
        })?;
        let read = Instant::now();
        let response = WireResponse::decode(&payload)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let decode_ns = if self.timed {
            read.elapsed().as_nanos() as u64
        } else {
            0
        };
        let sent = self.tags.recv().map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "response without request")
        })?;
        Ok(Received {
            sent,
            response,
            read,
            decode_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use bw_serve::demo::mlp_artifact;
    use bw_serve::{Server, TcpFrontend};

    use crate::schedule::input_pool;

    #[test]
    fn pipelined_responses_pair_with_their_requests() {
        let artifact = mlp_artifact("pipe-test", &[16, 64, 32, 8], 3);
        let mut pinned = artifact.pin().unwrap();
        let server = Server::builder().model(artifact).spawn().unwrap();
        let front = TcpFrontend::bind(&server, "127.0.0.1:0").unwrap();
        let inputs = input_pool(1, 16, 24);
        let expected: Vec<Vec<f32>> = inputs.iter().map(|x| pinned.infer(x).unwrap()).collect();

        let (mut w, mut r) = connect::<usize>(front.addr(), true, Duration::from_secs(10)).unwrap();
        // Sixteen frames in flight, then one more per response, with a
        // metrics scrape mixed in: every answer must belong to its tag.
        let send = |w: &mut PipeWriter<usize>, i: usize| {
            let req = if i == 5 {
                WireRequest::Prometheus
            } else {
                WireRequest::Infer {
                    model: "pipe-test".into(),
                    deadline_us: Duration::from_secs(5).as_micros() as u64,
                    input: inputs[i].clone(),
                }
            };
            w.send(&req, i).unwrap();
        };
        for i in 0..16 {
            send(&mut w, i);
        }
        for next in 16..24 + 16 {
            let got = r.recv().unwrap();
            let i = got.sent.tag;
            assert_eq!(i, next - 16, "responses arrive in request order");
            match got.response {
                WireResponse::Infer { output, .. } => assert_eq!(output, expected[i]),
                WireResponse::Prometheus(text) => assert_eq!(i, 5, "{text}"),
                other => panic!("unexpected {other:?}"),
            }
            assert!(got.read >= got.sent.written);
            if next < 24 {
                send(&mut w, next);
            }
        }
    }
}
