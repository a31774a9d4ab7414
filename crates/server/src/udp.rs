//! A real loopback UDP transport: each server runs on one or more worker
//! threads speaking genuine RFC 1035 wire format via `ddx_dns::wire`. Used
//! by integration tests and the transport benchmark (`perfbench`) to show
//! the testbed is not tied to in-process shortcuts.
//!
//! The transport is a shared-nothing worker pool: every worker owns its own
//! socket (`SO_REUSEPORT` port sharing on Linux, `try_clone` elsewhere —
//! see [`crate::batch`] for the fallback matrix) and its own batched
//! send/receive buffers ([`recvmmsg`/`sendmmsg`](crate::batch::BatchSocket)
//! on the fast path). Workers share only the `Server` itself, whose answer
//! memo is internally sharded by qname ([`crate::answer`]), so the hot path
//! takes no exclusive lock.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use ddx_dns::{wire, Edns, Message, MessageView};

use crate::batch::{BatchMode, BatchSocket, RecvBatch, SendQueue, BATCH};
use crate::server::{Server, ServerId};
use crate::testbed::{Network, QueryOutcome};

/// Socket read timeout: the cadence at which idle workers re-check the
/// stop flag.
const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// Ephemeral UDP ports one spawn tries before giving up on finding one
/// whose TCP twin is free.
const PORT_ATTEMPTS: usize = 32;

/// Tuning for one spawned server transport.
#[derive(Debug)]
pub struct TransportConfig {
    /// UDP worker threads. 1 reproduces the historical single-socket loop.
    pub workers: usize,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig { workers: 1 }
    }
}

/// A running UDP+TCP authoritative server bound to one loopback port.
///
/// UDP answers are truncated to the client's advertised EDNS payload size
/// (512 bytes without EDNS), setting the TC bit; the TCP listener on the
/// same port serves the full response with RFC 1035 §4.2.2 length framing.
pub struct UdpServerHandle {
    pub id: ServerId,
    pub addr: SocketAddr,
    server: Arc<RwLock<Server>>,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
    tcp_thread: Option<JoinHandle<()>>,
}

impl UdpServerHandle {
    /// Spawns `server` on an ephemeral 127.0.0.1 port (UDP and TCP) with
    /// the default single-worker transport.
    pub fn spawn(server: Server) -> std::io::Result<Self> {
        Self::spawn_with(server, TransportConfig::default())
    }

    /// Spawns `server` with explicit transport tuning.
    pub fn spawn_with(server: Server, cfg: TransportConfig) -> std::io::Result<Self> {
        let workers = cfg.workers.max(1);
        // Worker sockets: one per worker sharing the port via SO_REUSEPORT
        // where supported, else clones of one socket (the kernel then hands
        // each datagram to one of the blocked receivers).
        let mut sockets: Vec<UdpSocket> = Vec::with_capacity(workers);
        let (first, listener) = bind_port_pair(|| crate::batch::bind_worker_socket(0))?;
        let addr = first.local_addr()?;
        sockets.push(first);
        for _ in 1..workers {
            let sock = if crate::batch::reuseport_supported() {
                crate::batch::bind_worker_socket(addr.port())?
            } else {
                sockets[0].try_clone()?
            };
            sockets.push(sock);
        }
        for sock in &sockets {
            sock.set_read_timeout(Some(READ_TIMEOUT))?;
        }
        let id = server.id.clone();
        let server = Arc::new(RwLock::new(server));
        let stop = Arc::new(AtomicBool::new(false));
        let worker_threads: Vec<JoinHandle<()>> = sockets
            .into_iter()
            .enumerate()
            .map(|(i, sock)| {
                let server = Arc::clone(&server);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || udp_worker_loop(i, sock, &server, &stop))
            })
            .collect();
        let tcp_thread = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Blocking accept: no polling sleep. Drop wakes this thread
                // with a throwaway connection after setting the stop flag.
                for conn in listener.incoming() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    match conn {
                        Ok(stream) => {
                            let _ = handle_tcp_client(stream, &server);
                        }
                        Err(_) => break,
                    }
                }
            })
        };
        Ok(UdpServerHandle {
            id,
            addr,
            server,
            stop,
            workers: worker_threads,
            tcp_thread: Some(tcp_thread),
        })
    }

    /// Mutates the live server (e.g. to inject an error between probes).
    pub fn with_server_mut<R>(&self, f: impl FnOnce(&mut Server) -> R) -> R {
        f(&mut self.server.write().unwrap_or_else(PoisonError::into_inner))
    }
}

impl Drop for UdpServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake the blocking acceptor so it observes the flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        if let Some(t) = self.tcp_thread.take() {
            let _ = t.join();
        }
    }
}

/// A UDP socket from `bind_udp` and a TCP listener on the same loopback
/// port. The kernel picks an ephemeral UDP port without regard to TCP, and
/// that port's TCP twin may be taken, say by a recent connection still in
/// TIME_WAIT on it. Such a port is passed over (and held until the pair is
/// found, so it is not handed out again).
fn bind_port_pair(
    mut bind_udp: impl FnMut() -> std::io::Result<UdpSocket>,
) -> std::io::Result<(UdpSocket, TcpListener)> {
    let mut passed_over = Vec::new();
    loop {
        let udp = bind_udp()?;
        match TcpListener::bind(udp.local_addr()?) {
            Ok(tcp) => return Ok((udp, tcp)),
            Err(e)
                if e.kind() == std::io::ErrorKind::AddrInUse
                    && passed_over.len() + 1 < PORT_ATTEMPTS =>
            {
                passed_over.push(udp)
            }
            Err(e) => return Err(e),
        }
    }
}

/// One shared-nothing UDP worker: batched receive, decode, answer through
/// the sharded memo, batched send.
fn udp_worker_loop(
    worker: usize,
    sock: UdpSocket,
    server: &Arc<RwLock<Server>>,
    stop: &Arc<AtomicBool>,
) {
    let worker_label = worker.to_string();
    let obs_batches = ddx_obs::counter(
        "server.worker.recv_batches",
        &[("worker", worker_label.as_str())],
    );
    let obs_queries = ddx_obs::counter(
        "server.worker.queries",
        &[("worker", worker_label.as_str())],
    );
    let obs_sent = ddx_obs::counter("server.worker.sent", &[("worker", worker_label.as_str())]);
    let obs_batch_fill = ddx_obs::global().histogram_with_bounds(
        "server.worker.batch_fill",
        &[],
        &[1, 2, 4, 8, 16, 32, 64, 128],
    );
    let bsock = BatchSocket::new(sock, BatchMode::fastest());
    let mut batch = RecvBatch::new(BATCH);
    let mut out = SendQueue::with_capacity(BATCH);
    while !stop.load(Ordering::Relaxed) {
        let n = match bsock.recv_batch(&mut batch) {
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                continue; // timeout: re-check stop flag
            }
            Err(_) => break,
        };
        if n == 0 {
            continue;
        }
        obs_batches.inc();
        obs_batch_fill.record(n as u64);
        out.clear();
        {
            let server = server.read().unwrap_or_else(PoisonError::into_inner);
            for (bytes, peer) in batch.received() {
                // Zero-copy parse: the view borrows the receive slot; no
                // owned Message is built, on a memo hit or a miss.
                let Ok(view) = MessageView::parse(bytes) else {
                    continue;
                };
                obs_queries.inc();
                if server.respond_into(&view, udp_payload_limit(view.edns()), out.slot()) {
                    out.commit(peer);
                }
            }
        }
        if !out.is_empty() {
            obs_sent.add(out.len() as u64);
            let _ = bsock.send_batch(out.items());
        }
    }
}

/// The largest UDP payload IPv4 can carry: 65,535 minus the 8-byte UDP and
/// 20-byte IP headers. A larger datagram is never sent at all.
const MAX_UDP_PAYLOAD: usize = 65_507;

/// The largest UDP answer a query with EDNS state `edns` accepts: its
/// advertised payload size (never below 512 nor above [`MAX_UDP_PAYLOAD`]),
/// or 512 bytes without EDNS. The server truncates to it and the client
/// sizes its receive buffer by it.
fn udp_payload_limit(edns: Option<Edns>) -> usize {
    edns.map(|e| (e.udp_size as usize).clamp(512, MAX_UDP_PAYLOAD))
        .unwrap_or(512)
}

/// Serves one TCP connection: length-framed queries and responses
/// (RFC 1035 §4.2.2), truncated only past what the 16-bit length can frame.
fn handle_tcp_client(mut stream: TcpStream, server: &Arc<RwLock<Server>>) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut len_buf = [0u8; 2];
    stream.read_exact(&mut len_buf)?;
    let len = u16::from_be_bytes(len_buf) as usize;
    let mut msg = vec![0u8; len];
    stream.read_exact(&mut msg)?;
    let Ok(view) = MessageView::parse(&msg) else {
        return Ok(());
    };
    let mut bytes = Vec::new();
    let answered = server
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .respond_into(&view, usize::from(u16::MAX), &mut bytes);
    if answered {
        stream.write_all(&(bytes.len() as u16).to_be_bytes())?;
        stream.write_all(&bytes)?;
    }
    Ok(())
}

/// Sends one query over TCP with RFC 1035 §4.2.2 framing.
fn tcp_query(addr: SocketAddr, query: &Message, timeout: Duration) -> Option<Message> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout).ok()?;
    stream.set_read_timeout(Some(timeout)).ok()?;
    stream.set_write_timeout(Some(timeout)).ok()?;
    let bytes = wire::encode(query);
    stream.write_all(&(bytes.len() as u16).to_be_bytes()).ok()?;
    stream.write_all(&bytes).ok()?;
    let mut len_buf = [0u8; 2];
    stream.read_exact(&mut len_buf).ok()?;
    let len = u16::from_be_bytes(len_buf) as usize;
    let mut msg = vec![0u8; len];
    stream.read_exact(&mut msg).ok()?;
    wire::decode(&msg).ok()
}

/// A [`Network`] that reaches servers over loopback UDP, retrying over TCP
/// when a response comes back truncated (TC bit).
#[derive(Default)]
pub struct UdpNetwork {
    routes: std::collections::HashMap<ServerId, SocketAddr>,
    hosts: std::collections::HashMap<ddx_dns::Name, ServerId>,
    /// Per-query timeout; queries past it count as unresponsive.
    pub timeout: Duration,
    /// Retry truncated answers over TCP (on by default, like a stub
    /// resolver). Disable to observe raw TC responses.
    pub(crate) tcp_fallback: bool,
}

impl UdpNetwork {
    pub fn new() -> Self {
        UdpNetwork {
            routes: Default::default(),
            hosts: Default::default(),
            timeout: Duration::from_millis(500),
            tcp_fallback: true,
        }
    }

    /// Registers a spawned server's address.
    pub fn add_route(&mut self, handle: &UdpServerHandle) {
        self.routes.insert(handle.id.clone(), handle.addr);
    }

    /// Declares that NS hostname `host` resolves to `server`.
    pub fn register_ns(&mut self, host: ddx_dns::Name, server: ServerId) {
        self.hosts.insert(host, server);
    }
}

thread_local! {
    /// One reusable client socket per thread, with its receive buffer.
    /// Binding a fresh ephemeral socket used to dominate the cost of small
    /// queries; reuse keeps the same source-address/ID verification on
    /// every response. The buffer only grows, so a query allocates nothing
    /// once the thread has received an answer as large.
    static CLIENT_SOCKET: std::cell::RefCell<Option<(UdpSocket, Vec<u8>)>> =
        const { std::cell::RefCell::new(None) };
}

/// Runs `f` with this thread's client socket and a receive buffer of at
/// least `len` bytes, binding the socket on first use.
fn with_client_socket<R>(
    len: usize,
    f: impl FnOnce(&UdpSocket, &mut [u8]) -> Option<R>,
) -> Option<R> {
    CLIENT_SOCKET.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_none() {
            *slot = UdpSocket::bind("127.0.0.1:0").ok().map(|s| (s, Vec::new()));
        }
        let (socket, buf) = slot.as_mut()?;
        if buf.len() < len {
            buf.resize(len, 0);
        }
        f(socket, &mut buf[..len])
    })
}

/// What one UDP exchange produced, before any TCP fallback decision.
enum UdpReply {
    Outcome(QueryOutcome),
    /// The answer came back with TC set and the caller wants TCP fallback.
    Truncated,
}

impl UdpNetwork {
    /// One UDP exchange: send, then wait for a datagram attributable to
    /// this query. Bytes that echo the query ID but do not decode surface
    /// as [`QueryOutcome::Malformed`] instead of silently waiting out the
    /// timeout.
    ///
    /// Each datagram is decoded once, and the id and question echo are
    /// checked on the decoded [`Message`].
    fn udp_exchange(&self, addr: &SocketAddr, query: &Message) -> UdpReply {
        // Room for the largest answer the server may send this query.
        let limit = udp_payload_limit(query.edns);
        let out = with_client_socket(limit, |socket, buf| {
            socket.set_read_timeout(Some(self.timeout)).ok()?;
            socket.send_to(&wire::encode(query), addr).ok()?;
            loop {
                let (len, peer) = socket.recv_from(buf).ok()?;
                // The socket outlives a single query: besides checking the
                // source address and ID, skip datagrams that do not echo
                // this query's question (stale answers from an earlier,
                // timed-out exchange).
                if peer != *addr {
                    continue;
                }
                match wire::decode(&buf[..len]) {
                    Ok(answer) => {
                        if answer.id != query.id || answer.question != query.question {
                            continue;
                        }
                        if answer.flags.tc && self.tcp_fallback {
                            return Some(UdpReply::Truncated);
                        }
                        return Some(UdpReply::Outcome(QueryOutcome::Answer(Arc::new(answer))));
                    }
                    Err(_) => {
                        if len >= 2 && buf[..2] == query.id.to_be_bytes() {
                            return Some(UdpReply::Outcome(QueryOutcome::Malformed));
                        }
                        continue;
                    }
                }
            }
        });
        out.unwrap_or(UdpReply::Outcome(QueryOutcome::Timeout))
    }
}

impl Network for UdpNetwork {
    fn query(&self, server: &ServerId, query: &Message) -> Option<Arc<Message>> {
        self.query_outcome(server, query).into_answer()
    }

    fn query_outcome(&self, server: &ServerId, query: &Message) -> QueryOutcome {
        let Some(addr) = self.routes.get(server) else {
            return QueryOutcome::Timeout;
        };
        match self.udp_exchange(addr, query) {
            UdpReply::Truncated => match tcp_query(*addr, query, self.timeout) {
                Some(m) => QueryOutcome::Answer(Arc::new(m)),
                None => QueryOutcome::Timeout,
            },
            UdpReply::Outcome(out) => out,
        }
    }

    fn resolve_ns(&self, host: &ddx_dns::Name) -> Option<ServerId> {
        self.hosts.get(host).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sandbox::{build_sandbox, ZoneSpec};
    use crate::server::ServerBehavior;
    use ddx_dns::{name, RData, Rcode, Record, RrType, Soa, Zone};
    use std::net::Ipv4Addr;

    #[test]
    fn a_udp_port_whose_tcp_twin_is_taken_is_passed_over() {
        let blocker = TcpListener::bind("127.0.0.1:0").unwrap();
        let taken = blocker.local_addr().unwrap();
        let mut twin = Some(UdpSocket::bind(taken).expect("a fresh TCP port's UDP twin"));
        let (udp, tcp) = bind_port_pair(|| match twin.take() {
            Some(sock) => Ok(sock),
            None => crate::batch::bind_worker_socket(0),
        })
        .unwrap();
        let port = udp.local_addr().unwrap().port();
        assert_ne!(port, taken.port());
        assert_eq!(tcp.local_addr().unwrap().port(), port);
    }

    fn zone() -> Zone {
        let mut z = Zone::new(name("udp.test"));
        z.add(Record::new(
            name("udp.test"),
            3600,
            RData::Soa(Soa {
                mname: name("ns1.udp.test"),
                rname: name("hostmaster.udp.test"),
                serial: 1,
                refresh: 7200,
                retry: 900,
                expire: 1209600,
                minimum: 300,
            }),
        ));
        z.add(Record::new(
            name("www.udp.test"),
            60,
            RData::A(Ipv4Addr::new(127, 0, 0, 1)),
        ));
        z
    }

    #[test]
    fn udp_round_trip() {
        let mut server = Server::new(ServerId("udp#0".into()));
        server.load_zone(zone());
        let handle = UdpServerHandle::spawn(server).unwrap();
        let mut net = UdpNetwork::new();
        net.add_route(&handle);
        let q = Message::query(77, name("www.udp.test"), RrType::A);
        let r = net.query(&ServerId("udp#0".into()), &q).unwrap();
        assert_eq!(r.id, 77);
        assert!(r.find_answer(&name("www.udp.test"), RrType::A).is_some());
    }

    #[test]
    fn unresponsive_server_times_out() {
        let mut server = Server::new(ServerId("udp#1".into()));
        server.load_zone(zone());
        server.behavior = ServerBehavior::Unresponsive;
        let handle = UdpServerHandle::spawn(server).unwrap();
        let mut net = UdpNetwork::new();
        net.timeout = Duration::from_millis(100);
        net.add_route(&handle);
        let q = Message::query(78, name("www.udp.test"), RrType::A);
        assert!(net.query(&ServerId("udp#1".into()), &q).is_none());
    }

    #[test]
    fn live_mutation_visible() {
        let mut server = Server::new(ServerId("udp#2".into()));
        server.load_zone(zone());
        let handle = UdpServerHandle::spawn(server).unwrap();
        let mut net = UdpNetwork::new();
        net.add_route(&handle);
        handle.with_server_mut(|s| {
            s.zone_mut(&name("udp.test")).unwrap().add(Record::new(
                name("new.udp.test"),
                60,
                RData::A(Ipv4Addr::new(127, 0, 0, 2)),
            ));
        });
        let q = Message::query(79, name("new.udp.test"), RrType::A);
        let r = net.query(&ServerId("udp#2".into()), &q).unwrap();
        assert!(r.find_answer(&name("new.udp.test"), RrType::A).is_some());
    }

    #[test]
    fn sharded_transport_answers_from_many_client_threads() {
        let mut server = Server::new(ServerId("udp#3".into()));
        server.load_zone(zone());
        let handle = UdpServerHandle::spawn_with(server, TransportConfig { workers: 4 }).unwrap();
        let addr_id = ServerId("udp#3".into());
        let handle = Arc::new(handle);
        let threads: Vec<_> = (0..4u16)
            .map(|t| {
                let handle = Arc::clone(&handle);
                let id = addr_id.clone();
                std::thread::spawn(move || {
                    // Per-thread UdpNetwork: the thread-local client socket
                    // gives each thread its own 4-tuple (and so, with
                    // SO_REUSEPORT, possibly its own server worker).
                    let mut net = UdpNetwork::new();
                    net.add_route(&handle);
                    for i in 0..50u16 {
                        let qid = t * 1000 + i + 1;
                        let q = Message::query(qid, name("www.udp.test"), RrType::A);
                        let r = net.query(&id, &q).expect("answer");
                        assert_eq!(r.id, qid);
                        assert!(r.find_answer(&name("www.udp.test"), RrType::A).is_some());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn sharded_transport_answers_hostile_queries() {
        // The memo-miss side of the load: fresh denials, out-of-zone names,
        // private-use types and a plain-DNS AXFR, through two workers.
        let apex = name("hostile.test");
        let sb = build_sandbox(&[ZoneSpec::conventional(apex.clone())], 1_000_000, 99);
        let server = sb.testbed.server(&sb.zones[0].servers[0]).unwrap().clone();
        let id = server.id.clone();
        let handle = UdpServerHandle::spawn_with(server, TransportConfig { workers: 2 }).unwrap();
        let mut net = UdpNetwork::new();
        net.add_route(&handle);

        let q = Message::query(301, name("x0123456789abcdef.hostile.test"), RrType::A);
        let r = net.query(&id, &q).expect("NXDOMAIN answer");
        assert_eq!(r.rcode, Rcode::NxDomain);
        assert!(
            r.authorities
                .iter()
                .any(|rec| matches!(rec.rtype(), RrType::Nsec | RrType::Nsec3)),
            "a signed NXDOMAIN carries its denial records"
        );

        let q = Message::query(302, name("x1.nowhere.invalid"), RrType::A);
        assert_eq!(net.query(&id, &q).unwrap().rcode, Rcode::Refused);

        let q = Message::query(303, apex.clone(), RrType::Unknown(65_280));
        assert_eq!(net.query(&id, &q).unwrap().rcode, Rcode::NoError);

        // The signed zone never fits 512 bytes: TC over UDP, then the
        // whole SOA-bracketed transfer over the TCP retry.
        let mut q = Message::query(304, apex.clone(), RrType::Axfr);
        q.edns = None;
        let mut raw = UdpNetwork::new();
        raw.tcp_fallback = false;
        raw.add_route(&handle);
        assert!(raw.query(&id, &q).unwrap().flags.tc);
        let r = net.query(&id, &q).unwrap();
        assert!(!r.flags.tc);
        assert_eq!(r.answers.first().map(|r| r.rtype()), Some(RrType::Soa));
        assert_eq!(r.answers.last().map(|r| r.rtype()), Some(RrType::Soa));
    }

    #[test]
    fn payload_limit_is_the_edns_size_within_udp_bounds() {
        let limit = |edns: Option<u16>| {
            udp_payload_limit(edns.map(|udp_size| Edns {
                udp_size,
                dnssec_ok: true,
            }))
        };
        assert_eq!(limit(None), 512);
        assert_eq!(limit(Some(100)), 512);
        assert_eq!(limit(Some(4096)), 4096);
        assert_eq!(limit(Some(65_507)), 65_507);
        assert_eq!(limit(Some(65_535)), 65_507);
    }

    #[test]
    fn shutdown_joins_quickly_without_polling() {
        let mut server = Server::new(ServerId("udp#5".into()));
        server.load_zone(zone());
        let handle = UdpServerHandle::spawn_with(server, TransportConfig { workers: 2 }).unwrap();
        // Exercise both transports once so the threads are demonstrably live.
        let mut net = UdpNetwork::new();
        net.add_route(&handle);
        let q = Message::query(91, name("www.udp.test"), RrType::A);
        assert!(net.query(&ServerId("udp#5".into()), &q).is_some());
        let started = std::time::Instant::now();
        drop(handle);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "drop must join the acceptor via the wake connection, not a poll loop"
        );
    }
}

#[cfg(test)]
mod tcp_tests {
    use super::*;
    use ddx_dns::{name, Edns, RData, Record, RrType, Soa, Zone};
    use std::net::Ipv4Addr;

    /// A zone whose TXT RRset cannot fit a 512-byte UDP response.
    fn big_zone() -> Zone {
        let mut z = Zone::new(name("big.test"));
        z.add(Record::new(
            name("big.test"),
            3600,
            RData::Soa(Soa {
                mname: name("ns1.big.test"),
                rname: name("hostmaster.big.test"),
                serial: 1,
                refresh: 7200,
                retry: 900,
                expire: 1209600,
                minimum: 300,
            }),
        ));
        for i in 0..12 {
            z.add(Record::new(
                name("fat.big.test"),
                60,
                RData::Txt(vec![format!("{:0>120}", i)]),
            ));
        }
        z.add(Record::new(
            name("fat.big.test"),
            60,
            RData::A(Ipv4Addr::new(1, 2, 3, 4)),
        ));
        z
    }

    fn spawn_big() -> (UdpServerHandle, UdpNetwork) {
        let mut server = Server::new(ServerId("big#0".into()));
        server.load_zone(big_zone());
        let handle = UdpServerHandle::spawn(server).unwrap();
        let mut net = UdpNetwork::new();
        net.add_route(&handle);
        (handle, net)
    }

    #[test]
    fn oversized_answer_truncated_without_fallback() {
        let (_handle, mut net) = spawn_big();
        net.tcp_fallback = false;
        let mut q = Message::query(5, name("fat.big.test"), RrType::Txt);
        q.edns = Some(Edns {
            udp_size: 512,
            dnssec_ok: false,
        });
        let r = net.query(&ServerId("big#0".into()), &q).unwrap();
        assert!(r.flags.tc, "TC bit must be set");
        assert!(r.answers.is_empty(), "truncated responses carry no answers");
    }

    #[test]
    fn tcp_fallback_recovers_full_answer() {
        let (_handle, net) = spawn_big();
        let mut q = Message::query(6, name("fat.big.test"), RrType::Txt);
        q.edns = Some(Edns {
            udp_size: 512,
            dnssec_ok: false,
        });
        let r = net.query(&ServerId("big#0".into()), &q).unwrap();
        assert!(!r.flags.tc);
        assert_eq!(
            r.find_answer(&name("fat.big.test"), RrType::Txt)
                .unwrap()
                .len(),
            12
        );
    }

    #[test]
    fn large_edns_budget_avoids_truncation() {
        let (_handle, mut net) = spawn_big();
        net.tcp_fallback = false;
        let mut q = Message::query(7, name("fat.big.test"), RrType::Txt);
        q.edns = Some(Edns {
            udp_size: 4096,
            dnssec_ok: false,
        });
        let r = net.query(&ServerId("big#0".into()), &q).unwrap();
        assert!(!r.flags.tc);
        assert_eq!(
            r.find_answer(&name("fat.big.test"), RrType::Txt)
                .unwrap()
                .len(),
            12
        );
    }

    #[test]
    fn answer_over_4k_arrives_whole_under_a_large_edns_size() {
        // 60 more 120-byte strings grow the TXT answer past 9 KB.
        let mut zone = big_zone();
        for i in 12..72 {
            zone.add(Record::new(
                name("fat.big.test"),
                60,
                RData::Txt(vec![format!("{:0>120}", i)]),
            ));
        }
        let mut server = Server::new(ServerId("big#1".into()));
        server.load_zone(zone);
        let handle = UdpServerHandle::spawn(server).unwrap();
        let mut net = UdpNetwork::new();
        net.tcp_fallback = false;
        net.add_route(&handle);
        let mut q = Message::query(10, name("fat.big.test"), RrType::Txt);
        q.edns = Some(Edns {
            udp_size: 65_000,
            dnssec_ok: false,
        });
        let outcome = net.query_outcome(&ServerId("big#1".into()), &q);
        let QueryOutcome::Answer(r) = outcome else {
            panic!("expected the whole answer over UDP, got {outcome:?}");
        };
        assert!(!r.flags.tc);
        assert_eq!(
            r.find_answer(&name("fat.big.test"), RrType::Txt)
                .unwrap()
                .len(),
            72
        );
    }

    #[test]
    fn no_edns_means_512_byte_limit() {
        let (_handle, mut net) = spawn_big();
        net.tcp_fallback = false;
        let mut q = Message::query(8, name("fat.big.test"), RrType::Txt);
        q.edns = None;
        let r = net.query(&ServerId("big#0".into()), &q).unwrap();
        assert!(r.flags.tc, "plain-DNS clients get the classic 512 limit");
    }
}

#[cfg(test)]
mod axfr_tests {
    use super::*;
    use crate::sandbox::{build_sandbox, ZoneSpec};
    use crate::server::Server;
    use ddx_dns::{name, RrType, Zone};

    /// Reconstructs a zone from an AXFR answer stream.
    fn zone_from_axfr(apex: &ddx_dns::Name, records: &[ddx_dns::Record]) -> Zone {
        let mut z = Zone::new(apex.clone());
        // Skip the trailing SOA duplicate.
        for rec in &records[..records.len().saturating_sub(1)] {
            z.add(rec.clone());
        }
        z
    }

    #[test]
    fn axfr_over_tcp_fallback_transfers_signed_zone() {
        // A fully signed zone never fits 512 bytes: AXFR over UDP gets TC
        // and the client transparently retries over TCP (RFC 5936 behavior
        // approximated by fallback).
        let sb = build_sandbox(&[ZoneSpec::conventional(name("xfer.test"))], 1_000_000, 31);
        let apex = name("xfer.test");
        let original = sb
            .testbed
            .server(&sb.zones[0].servers[0])
            .unwrap()
            .zone(&apex)
            .unwrap()
            .clone();
        let mut server = Server::new(ServerId("xfer#0".into()));
        server.load_zone(original.clone());
        let handle = UdpServerHandle::spawn(server).unwrap();
        let mut net = UdpNetwork::new();
        net.add_route(&handle);

        let mut q = Message::query(9, apex.clone(), RrType::Axfr);
        q.edns = None; // classic 512-byte UDP: forces the TCP path
        let r = net.query(&ServerId("xfer#0".into()), &q).unwrap();
        assert!(!r.flags.tc, "fallback must deliver the untruncated stream");
        // SOA-bracketed stream.
        assert_eq!(r.answers.first().map(|r| r.rtype()), Some(RrType::Soa));
        assert_eq!(r.answers.last().map(|r| r.rtype()), Some(RrType::Soa));
        // The transferred zone equals the original.
        let transferred = zone_from_axfr(&apex, &r.answers);
        assert_eq!(transferred, original);
    }

    #[test]
    fn axfr_refused_for_non_apex() {
        let sb = build_sandbox(&[ZoneSpec::conventional(name("xfer.test"))], 1_000_000, 32);
        let server = sb.testbed.server(&sb.zones[0].servers[0]).unwrap();
        let q = Message::query(10, name("www.xfer.test"), RrType::Axfr);
        let r = server.handle_arc(&q).unwrap();
        assert_eq!(r.rcode, ddx_dns::Rcode::Refused);
    }
}
