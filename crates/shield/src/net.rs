//! The network shield (paper §3.3.3).
//!
//! TensorFlow has no end-to-end encryption of its own; the network shield
//! transparently wraps every socket in a TLS-like secure channel so that
//! no plaintext leaves the enclave. The channel is:
//!
//! * **key-exchanged** with X25519 ECDHE (forward secrecy — the paper
//!   §7.3 explicitly recommends ECDHE over RSA),
//! * **record-protected** with ChaCha20-Poly1305, one sequence number per
//!   direction (replay, reorder and truncation are detected),
//! * **attestable**: the handshake exposes a transcript hash that higher
//!   layers (CAS) embed in attestation quotes, binding the channel to an
//!   enclave identity.
//!
//! The transport underneath is untrusted: [`Transport`] is implemented by
//! an in-memory pipe ([`duplex`]) whose [`Adversary`] hook can drop,
//! tamper, replay or reorder messages — the Dolev-Yao model of §2.3.

use crate::ShieldError;
use parking_lot::Mutex;
use securetf_crypto::aead::{self, Key, Nonce};
use securetf_crypto::hkdf;
use securetf_crypto::sha256::Sha256;
use securetf_crypto::x25519::{PublicKey, StaticSecret};
use securetf_tee::telemetry::{Counter, Histogram, SealedSnapshot};
use securetf_tee::{CostCategory, Enclave, RetryPolicy};
use securetf_tensor::kernels::WorkerPool;
use std::collections::VecDeque;
use std::sync::Arc;

/// An unreliable, untrusted datagram transport.
pub trait Transport: Send {
    /// Sends one message (the adversary may interfere).
    fn send(&self, message: Vec<u8>);
    /// Receives the next message, or `None` if the pipe is empty/closed.
    fn recv(&self) -> Option<Vec<u8>>;
}

/// Actions an adversary can take on each in-flight message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tamper {
    /// Deliver unchanged.
    #[default]
    Pass,
    /// Drop the message.
    Drop,
    /// Flip a bit at the given byte offset (modulo length).
    FlipBit(usize),
    /// Deliver the message twice (replay).
    Duplicate,
}

/// A Dolev-Yao adversary positioned on a pipe.
pub type Adversary = Arc<dyn Fn(&[u8]) -> Tamper + Send + Sync>;

struct PipeInner {
    queue: VecDeque<Vec<u8>>,
}

/// One direction of an in-memory duplex pipe.
pub struct PipeEnd {
    tx: Arc<Mutex<PipeInner>>,
    rx: Arc<Mutex<PipeInner>>,
    adversary: Option<Adversary>,
}

impl std::fmt::Debug for PipeEnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PipeEnd")
    }
}

impl Transport for PipeEnd {
    fn send(&self, message: Vec<u8>) {
        let action = self
            .adversary
            .as_ref()
            .map(|a| a(&message))
            .unwrap_or(Tamper::Pass);
        let mut q = self.tx.lock();
        match action {
            Tamper::Pass => q.queue.push_back(message),
            Tamper::Drop => {}
            Tamper::FlipBit(offset) => {
                let mut m = message;
                if !m.is_empty() {
                    let len = m.len();
                    m[offset % len] ^= 1;
                }
                q.queue.push_back(m);
            }
            Tamper::Duplicate => {
                q.queue.push_back(message.clone());
                q.queue.push_back(message);
            }
        }
    }

    fn recv(&self) -> Option<Vec<u8>> {
        self.rx.lock().queue.pop_front()
    }
}

/// Creates a connected duplex pipe, optionally with an adversary that sees
/// (and may modify) every message in both directions.
pub fn duplex(adversary: Option<Adversary>) -> (PipeEnd, PipeEnd) {
    let a = Arc::new(Mutex::new(PipeInner {
        queue: VecDeque::new(),
    }));
    let b = Arc::new(Mutex::new(PipeInner {
        queue: VecDeque::new(),
    }));
    (
        PipeEnd {
            tx: a.clone(),
            rx: b.clone(),
            adversary: adversary.clone(),
        },
        PipeEnd {
            tx: b,
            rx: a,
            adversary,
        },
    )
}

/// Which side of the handshake a party plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The connecting side (sends its ephemeral key first).
    Initiator,
    /// The accepting side.
    Responder,
}

/// Registry-backed record counters shared by every channel on the same
/// telemetry handle (resolved once per channel at handshake time).
#[derive(Debug, Clone)]
struct NetMetrics {
    records_sent: Counter,
    records_received: Counter,
    records_rejected: Counter,
    bytes_sent: Counter,
    bytes_received: Counter,
    vectored_sends: Counter,
    crypto_bytes_sealed: Counter,
    crypto_bytes_opened: Counter,
    crypto_seal_ns: Histogram,
}

impl NetMetrics {
    fn for_enclave(enclave: &Enclave) -> Self {
        let telemetry = enclave.telemetry();
        NetMetrics {
            records_sent: telemetry.counter("shield.net.records_sent"),
            records_received: telemetry.counter("shield.net.records_received"),
            records_rejected: telemetry.counter("shield.net.records_rejected"),
            bytes_sent: telemetry.counter("shield.net.bytes_sent"),
            bytes_received: telemetry.counter("shield.net.bytes_received"),
            vectored_sends: telemetry.counter("shield.net.vectored_sends"),
            crypto_bytes_sealed: telemetry.counter("crypto.bytes_sealed"),
            crypto_bytes_opened: telemetry.counter("crypto.bytes_opened"),
            crypto_seal_ns: telemetry.histogram("crypto.seal_ns"),
        }
    }
}

/// A secure channel over an untrusted transport.
pub struct SecureChannel<T: Transport> {
    transport: T,
    enclave: Arc<Enclave>,
    send_key: Key,
    recv_key: Key,
    send_seq: u64,
    recv_seq: u64,
    loss_window: u64,
    transcript: [u8; 32],
    metrics: NetMetrics,
    /// Pool for parallel record sealing in vectored sends. Wall-clock
    /// only: wire bytes and virtual-time charges stay identical to a
    /// serial seal for any worker count.
    pool: WorkerPool,
}

impl<T: Transport> std::fmt::Debug for SecureChannel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureChannel")
            .field("send_seq", &self.send_seq)
            .field("recv_seq", &self.recv_seq)
            .finish_non_exhaustive()
    }
}

const REC_DATA: u32 = 1;

impl<T: Transport> SecureChannel<T> {
    /// Runs the ECDHE handshake over `transport`.
    ///
    /// Both sides must call this (one as [`Role::Initiator`], one as
    /// [`Role::Responder`]) with the messages flowing through a connected
    /// transport pair. The handshake charges network-shield syscall costs
    /// to the enclave.
    ///
    /// # Errors
    ///
    /// Returns [`ShieldError::HandshakeFailed`] on malformed or missing
    /// peer messages.
    pub fn handshake(transport: T, enclave: Arc<Enclave>, role: Role) -> Result<Self, ShieldError> {
        let mut seed = [0u8; 32];
        enclave.random_bytes(&mut seed);
        let secret = StaticSecret::from_bytes(seed);
        let ours = PublicKey::from(&secret);

        enclave.charge_syscall();
        let theirs: PublicKey = match role {
            Role::Initiator => {
                transport.send(ours.as_bytes().to_vec());
                let msg = transport
                    .recv()
                    .ok_or(ShieldError::HandshakeFailed("no responder key"))?;
                let bytes: [u8; 32] = msg
                    .try_into()
                    .map_err(|_| ShieldError::HandshakeFailed("bad responder key length"))?;
                PublicKey(bytes)
            }
            Role::Responder => {
                let msg = transport
                    .recv()
                    .ok_or(ShieldError::HandshakeFailed("no initiator key"))?;
                let bytes: [u8; 32] = msg
                    .try_into()
                    .map_err(|_| ShieldError::HandshakeFailed("bad initiator key length"))?;
                transport.send(ours.as_bytes().to_vec());
                PublicKey(bytes)
            }
        };
        enclave.charge_syscall();

        let shared = secret.diffie_hellman(&theirs);
        if shared == [0u8; 32] {
            return Err(ShieldError::HandshakeFailed("low-order peer point"));
        }

        // Transcript binds both public keys in initiator-first order.
        let (init_pk, resp_pk) = match role {
            Role::Initiator => (ours, theirs),
            Role::Responder => (theirs, ours),
        };
        let mut h = Sha256::new();
        h.update(b"securetf-net-shield-v1");
        h.update(init_pk.as_bytes());
        h.update(resp_pk.as_bytes());
        let transcript = h.finalize();

        let prk = hkdf::extract(&transcript, &shared);
        let i2r = hkdf::expand(&prk, b"initiator->responder", 32)
            .expect("32 bytes is within HKDF limits");
        let r2i = hkdf::expand(&prk, b"responder->initiator", 32)
            .expect("32 bytes is within HKDF limits");
        let to_key = |v: Vec<u8>| Key::from_bytes(v.try_into().expect("expanded 32 bytes"));
        let (send_key, recv_key) = match role {
            Role::Initiator => (to_key(i2r), to_key(r2i)),
            Role::Responder => (to_key(r2i), to_key(i2r)),
        };

        let metrics = NetMetrics::for_enclave(&enclave);
        Ok(SecureChannel {
            transport,
            enclave,
            send_key,
            recv_key,
            send_seq: 0,
            recv_seq: 0,
            loss_window: 0,
            transcript,
            metrics,
            pool: WorkerPool::serial(),
        })
    }

    /// Sets the worker pool used by [`SecureChannel::send_vectored`] to
    /// seal the records of a batch in parallel. Records keep their
    /// pre-assigned sequence numbers and are submitted in batch order, so
    /// the wire bytes are bit-identical to a serial seal for any worker
    /// count (default: serial).
    pub fn set_worker_pool(&mut self, pool: WorkerPool) {
        self.pool = pool;
    }

    /// The handshake transcript hash; embed this in an attestation quote's
    /// report data to bind the channel to an enclave identity.
    pub fn transcript_hash(&self) -> [u8; 32] {
        self.transcript
    }

    /// The underlying (untrusted) transport, mutable — harnesses and
    /// supervisors adjust transport behaviour mid-session.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Tolerate up to `window` *lost* records per receive: a record
    /// whose sequence number is ahead of the expected one by at most
    /// `window` is accepted (the gap is treated as dropped datagrams),
    /// after which the sequence resynchronizes. Replays and reorderings
    /// behind the expected sequence still fail closed. The default
    /// window of 0 keeps strict TLS-like semantics.
    pub fn set_loss_window(&mut self, window: u64) {
        self.loss_window = window;
    }

    /// Encrypts and sends one message.
    ///
    /// # Errors
    ///
    /// Returns [`ShieldError::ChannelClosed`] if the enclave backing
    /// this channel has been marked failed — a crashed endpoint cannot
    /// produce authenticated records — or if the channel has used up its
    /// sequence numbers (a nonce must never repeat under one key).
    pub fn send(&mut self, plaintext: &[u8]) -> Result<(), ShieldError> {
        if self.enclave.is_failed() {
            return Err(ShieldError::ChannelClosed);
        }
        let next_seq = self
            .send_seq
            .checked_add(1)
            .ok_or(ShieldError::ChannelClosed)?;
        let nonce = Nonce::from_counter(REC_DATA, self.send_seq);
        let aad = self.send_seq.to_le_bytes();
        // One exactly-sized allocation for the record the transport
        // consumes; the seal itself runs in place.
        let record = aead::seal(&self.send_key, &nonce, plaintext, &aad);
        self.send_seq = next_seq;
        self.enclave.charge_syscall();
        let crypto_ns = self
            .enclave
            .cost_model()
            .shield_crypto_ns(plaintext.len() as u64);
        self.enclave.spend(CostCategory::Network, crypto_ns);
        self.metrics.records_sent.inc();
        self.metrics.bytes_sent.add(plaintext.len() as u64);
        self.metrics.crypto_bytes_sealed.add(plaintext.len() as u64);
        self.metrics.crypto_seal_ns.record(crypto_ns);
        self.transport.send(record);
        Ok(())
    }

    /// Scatter/gather send: seals one record per chunk — no joined
    /// buffer is ever materialized — and submits the whole batch with a
    /// single gather syscall (the writev analogue). Record protection is
    /// per chunk, so the receiver drains them with ordinary
    /// [`SecureChannel::recv`] calls, one per chunk, and a chunked push
    /// interleaves with other traffic at record granularity.
    ///
    /// Crypto cost is charged per chunk on the *actual* chunk lengths
    /// (compressed payloads pay only their compressed size); the
    /// `shield.net.vectored_sends` counter tracks batches while
    /// `records_sent`/`bytes_sent` keep counting individual records.
    ///
    /// # Errors
    ///
    /// Returns [`ShieldError::ChannelClosed`] if the enclave backing
    /// this channel has been marked failed, or if the batch would run the
    /// channel out of sequence numbers (nothing is sent then: a nonce
    /// must never repeat under one key). An empty batch is a no-op (no
    /// syscall, no records).
    pub fn send_vectored(&mut self, chunks: &[&[u8]]) -> Result<(), ShieldError> {
        if self.enclave.is_failed() {
            return Err(ShieldError::ChannelClosed);
        }
        if chunks.is_empty() {
            return Ok(());
        }
        let end_seq = u64::try_from(chunks.len())
            .ok()
            .and_then(|records| self.send_seq.checked_add(records))
            .ok_or(ShieldError::ChannelClosed)?;
        self.enclave.charge_syscall();
        self.metrics.vectored_sends.inc();
        // Sequence numbers are assigned up front, so the records of one
        // batch are independent and seal across the pool; submission stays
        // in batch order, making the wire bytes identical to a serial
        // seal for any worker count.
        let base_seq = self.send_seq;
        let key = &self.send_key;
        let mut records: Vec<Vec<u8>> = vec![Vec::new(); chunks.len()];
        self.pool.run_items(&mut records, &|i, slot| {
            let seq = base_seq + i as u64;
            let nonce = Nonce::from_counter(REC_DATA, seq);
            let aad = seq.to_le_bytes();
            *slot = aead::seal(key, &nonce, chunks[i], &aad);
        });
        self.send_seq = end_seq;
        for (&chunk, record) in chunks.iter().zip(records) {
            let crypto_ns = self
                .enclave
                .cost_model()
                .shield_crypto_ns(chunk.len() as u64);
            self.enclave.spend(CostCategory::Network, crypto_ns);
            self.metrics.records_sent.inc();
            self.metrics.bytes_sent.add(chunk.len() as u64);
            self.metrics.crypto_bytes_sealed.add(chunk.len() as u64);
            self.metrics.crypto_seal_ns.record(crypto_ns);
            self.transport.send(record);
        }
        Ok(())
    }

    /// Receives and authenticates the next message.
    ///
    /// # Errors
    ///
    /// * [`ShieldError::ChannelClosed`] if the transport has no message,
    ///   this channel's enclave is marked failed, or the peer has used up
    ///   its sequence numbers.
    /// * [`ShieldError::ChannelTampered`] if authentication fails —
    ///   tampering, replay, reordering and truncation all land here
    ///   because the sequence number is part of the authenticated data.
    ///   With a [`SecureChannel::set_loss_window`], a bounded run of
    ///   dropped records is instead skipped over.
    pub fn recv(&mut self) -> Result<Vec<u8>, ShieldError> {
        if self.enclave.is_failed() {
            return Err(ShieldError::ChannelClosed);
        }
        self.enclave.charge_syscall();
        let record = self.transport.recv().ok_or(ShieldError::ChannelClosed)?;
        self.open_record(record)
    }

    /// Non-blocking receive for multiplexing servers polling many
    /// channels: `Ok(None)` when the transport currently has no record
    /// (no syscall is charged for an empty poll), otherwise exactly
    /// [`SecureChannel::recv`].
    ///
    /// # Errors
    ///
    /// * [`ShieldError::ChannelClosed`] if this channel's enclave is
    ///   marked failed.
    /// * [`ShieldError::ChannelTampered`] if a present record fails
    ///   authentication.
    pub fn try_recv(&mut self) -> Result<Option<Vec<u8>>, ShieldError> {
        if self.enclave.is_failed() {
            return Err(ShieldError::ChannelClosed);
        }
        let Some(record) = self.transport.recv() else {
            return Ok(None);
        };
        self.enclave.charge_syscall();
        self.open_record(record).map(Some)
    }

    fn open_record(&mut self, mut record: Vec<u8>) -> Result<Vec<u8>, ShieldError> {
        // `u64::MAX` is never a sequence number (`send` stops one short,
        // so that `seq + 1` always exists): a receiver that has reached it
        // has seen every record its peer could send.
        if self.recv_seq == u64::MAX {
            return Err(ShieldError::ChannelClosed);
        }
        if record.len() >= aead::TAG_LEN {
            let ct_len = record.len() - aead::TAG_LEN;
            let last = self
                .recv_seq
                .saturating_add(self.loss_window)
                .min(u64::MAX - 1);
            for candidate in self.recv_seq..=last {
                let nonce = Nonce::from_counter(REC_DATA, candidate);
                let aad = candidate.to_le_bytes();
                // Verify-then-decrypt in place: a candidate mismatch
                // leaves the buffer as ciphertext for the next candidate,
                // and a match turns the record's own buffer into the
                // plaintext — no per-candidate decryption allocations.
                let (buf, tag) = record.split_at_mut(ct_len);
                if aead::open_in_place_detached(&self.recv_key, &nonce, buf, tag, &aad).is_ok() {
                    record.truncate(ct_len);
                    self.recv_seq = candidate + 1;
                    let crypto_ns = self
                        .enclave
                        .cost_model()
                        .shield_crypto_ns(record.len() as u64);
                    self.enclave.spend(CostCategory::Network, crypto_ns);
                    self.metrics.records_received.inc();
                    self.metrics.bytes_received.add(record.len() as u64);
                    self.metrics.crypto_bytes_opened.add(record.len() as u64);
                    return Ok(record);
                }
            }
        }
        self.metrics.records_rejected.inc();
        Err(ShieldError::ChannelTampered("record authentication failed"))
    }

    /// Ships a sealed telemetry snapshot to the peer. The snapshot is
    /// already ciphertext under the producing enclave's sealing key; the
    /// channel adds its own record protection on top, so even a sealed
    /// blob never crosses the wire unauthenticated.
    ///
    /// # Errors
    ///
    /// Same as [`SecureChannel::send`].
    pub fn send_telemetry(&mut self, sealed: &SealedSnapshot) -> Result<(), ShieldError> {
        self.send(sealed.as_bytes())
    }

    /// Receives a sealed telemetry snapshot shipped by the peer. The
    /// returned blob is still sealed; only an enclave with the producing
    /// identity can open it (fail-closed on tamper).
    ///
    /// # Errors
    ///
    /// Same as [`SecureChannel::recv`].
    pub fn recv_telemetry(&mut self) -> Result<SealedSnapshot, ShieldError> {
        self.recv().map(SealedSnapshot::from_bytes)
    }

    /// Sends a message and waits for one reply (request/response helper).
    ///
    /// # Errors
    ///
    /// Propagates [`SecureChannel::send`] and [`SecureChannel::recv`]
    /// errors.
    pub fn request(&mut self, message: &[u8]) -> Result<Vec<u8>, ShieldError> {
        self.send(message)?;
        self.recv()
    }

    /// Like [`SecureChannel::request`], but transient failures — an
    /// empty transport ([`ShieldError::ChannelClosed`]) — are retried
    /// per `policy`, re-sending the request each attempt with backoff
    /// charged to the enclave clock. Integrity failures
    /// ([`ShieldError::ChannelTampered`], handshake errors) fail closed
    /// on the first occurrence.
    ///
    /// # Errors
    ///
    /// The terminal error: a fatal error immediately, or the last
    /// transient error once attempts are exhausted.
    pub fn request_with_retry(
        &mut self,
        message: &[u8],
        policy: &RetryPolicy,
    ) -> Result<Vec<u8>, ShieldError> {
        let enclave = self.enclave.clone();
        policy
            .run(
                &enclave,
                |_| self.request(message),
                |e| matches!(e, ShieldError::ChannelClosed),
            )
            .map_err(securetf_tee::retry::RetryError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use securetf_tee::{EnclaveImage, ExecutionMode, Platform};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn enclave() -> Arc<Enclave> {
        let platform = Platform::builder().build();
        platform
            .create_enclave(
                &EnclaveImage::builder().code(b"net test").build(),
                ExecutionMode::Hardware,
            )
            .unwrap()
    }

    /// Transport wrapper that spin-waits briefly for a message, so the two
    /// handshake halves can run on separate threads in tests.
    struct ResendOnEmpty {
        inner: PipeEnd,
    }

    impl ResendOnEmpty {
        fn new(inner: PipeEnd) -> Self {
            ResendOnEmpty { inner }
        }
    }

    impl Transport for ResendOnEmpty {
        fn send(&self, message: Vec<u8>) {
            self.inner.send(message);
        }

        fn recv(&self) -> Option<Vec<u8>> {
            for _ in 0..50_000 {
                if let Some(m) = self.inner.recv() {
                    return Some(m);
                }
                std::thread::yield_now();
            }
            None
        }
    }

    fn pair(
        adversary: Option<Adversary>,
    ) -> (SecureChannel<ResendOnEmpty>, SecureChannel<ResendOnEmpty>) {
        let (a, b) = duplex(adversary);
        let ea = enclave();
        let eb = enclave();
        let init = std::thread::spawn(move || {
            SecureChannel::handshake(ResendOnEmpty::new(a), ea, Role::Initiator).unwrap()
        });
        let resp = SecureChannel::handshake(ResendOnEmpty::new(b), eb, Role::Responder).unwrap();
        (init.join().unwrap(), resp)
    }

    #[test]
    fn roundtrip_both_directions() {
        let (mut a, mut b) = pair(None);
        a.send(b"hello from initiator").unwrap();
        assert_eq!(b.recv().unwrap(), b"hello from initiator");
        b.send(b"hello back").unwrap();
        assert_eq!(a.recv().unwrap(), b"hello back");
    }

    #[test]
    fn transcripts_agree() {
        let (a, b) = pair(None);
        assert_eq!(a.transcript_hash(), b.transcript_hash());
    }

    #[test]
    fn wire_bytes_are_ciphertext() {
        let (a_end, b_end) = duplex(None);
        let ea = enclave();
        let eb = enclave();
        let resp_handle = std::thread::spawn(move || {
            SecureChannel::handshake(ResendOnEmpty::new(b_end), eb, Role::Responder).unwrap()
        });
        let mut a =
            SecureChannel::handshake(ResendOnEmpty::new(a_end), ea, Role::Initiator).unwrap();
        let mut b = resp_handle.join().unwrap();
        a.send(b"gradient update payload").unwrap();
        // Peek at the wire before b reads it.
        let wire = b.transport.inner.recv().unwrap();
        assert!(!wire.windows(8).any(|w| w == &b"gradient"[..]));
        // Put it back so b can read it.
        b.transport.inner.rx.lock().queue.push_front(wire);
        assert_eq!(b.recv().unwrap(), b"gradient update payload");
    }

    #[test]
    fn tampered_record_detected() {
        let counter = Arc::new(AtomicU64::new(0));
        let c = counter.clone();
        // Let the 2 handshake messages pass, corrupt the 3rd.
        let adversary: Adversary = Arc::new(move |_msg| {
            if c.fetch_add(1, Ordering::SeqCst) == 2 {
                Tamper::FlipBit(5)
            } else {
                Tamper::Pass
            }
        });
        let (mut a, mut b) = pair(Some(adversary));
        a.send(b"important").unwrap();
        assert!(matches!(b.recv(), Err(ShieldError::ChannelTampered(_))));
    }

    #[test]
    fn replayed_record_detected() {
        let counter = Arc::new(AtomicU64::new(0));
        let c = counter.clone();
        let adversary: Adversary = Arc::new(move |_msg| {
            if c.fetch_add(1, Ordering::SeqCst) == 2 {
                Tamper::Duplicate
            } else {
                Tamper::Pass
            }
        });
        let (mut a, mut b) = pair(Some(adversary));
        a.send(b"pay 100 EUR").unwrap();
        assert_eq!(b.recv().unwrap(), b"pay 100 EUR");
        // The duplicate fails: the expected sequence number moved on.
        assert!(matches!(b.recv(), Err(ShieldError::ChannelTampered(_))));
    }

    #[test]
    fn dropped_record_breaks_sequence() {
        let counter = Arc::new(AtomicU64::new(0));
        let c = counter.clone();
        let adversary: Adversary = Arc::new(move |_msg| {
            if c.fetch_add(1, Ordering::SeqCst) == 2 {
                Tamper::Drop
            } else {
                Tamper::Pass
            }
        });
        let (mut a, mut b) = pair(Some(adversary));
        a.send(b"first").unwrap();
        a.send(b"second").unwrap();
        // "first" was dropped; "second" arrives with seq 1 but b expects 0.
        assert!(matches!(b.recv(), Err(ShieldError::ChannelTampered(_))));
    }

    #[test]
    fn recv_on_empty_is_closed() {
        let (mut a, _b) = pair(None);
        assert!(matches!(a.recv(), Err(ShieldError::ChannelClosed)));
    }

    #[test]
    fn try_recv_polls_without_closing() {
        let (mut a, mut b) = pair(None);
        assert!(matches!(b.try_recv(), Ok(None)));
        a.send(b"polled").unwrap();
        assert_eq!(b.try_recv().unwrap().unwrap(), b"polled");
        assert!(matches!(b.try_recv(), Ok(None)));
        // A failed enclave still fails closed even on a poll.
        b.enclave.mark_failed();
        assert!(matches!(b.try_recv(), Err(ShieldError::ChannelClosed)));
    }

    #[test]
    fn many_messages_keep_sequence() {
        let (mut a, mut b) = pair(None);
        for i in 0..100u32 {
            a.send(&i.to_le_bytes()).unwrap();
        }
        for i in 0..100u32 {
            assert_eq!(b.recv().unwrap(), i.to_le_bytes());
        }
    }

    #[test]
    fn channel_charges_syscall_and_crypto_time() {
        let (mut a, _b) = pair(None);
        let t0 = a.enclave.clock().now_ns();
        a.send(&vec![0u8; 1_000_000]).unwrap();
        assert!(a.enclave.clock().now_ns() - t0 >= 250_000);
    }

    #[test]
    fn loss_window_skips_dropped_records_but_rejects_replays() {
        let counter = Arc::new(AtomicU64::new(0));
        let c = counter.clone();
        // Handshake (0,1) passes; drop the first data record, replay the
        // second.
        let adversary: Adversary = Arc::new(move |_msg| match c.fetch_add(1, Ordering::SeqCst) {
            2 => Tamper::Drop,
            3 => Tamper::Duplicate,
            _ => Tamper::Pass,
        });
        let (mut a, mut b) = pair(Some(adversary));
        b.set_loss_window(4);
        a.send(b"first").unwrap();
        a.send(b"second").unwrap();
        // "first" was dropped; the window resynchronizes onto "second".
        assert_eq!(b.recv().unwrap(), b"second");
        // The replayed copy of "second" is now behind the sequence: rejected.
        assert!(matches!(b.recv(), Err(ShieldError::ChannelTampered(_))));
    }

    #[test]
    fn huge_loss_window_saturates_instead_of_wrapping() {
        // `recv_seq + loss_window` used to overflow from the second record
        // on: a panic in debug, in release an empty candidate range that
        // rejected every record.
        let (mut a, mut b) = pair(None);
        b.set_loss_window(u64::MAX);
        for message in [&b"first"[..], b"second", b"third"] {
            a.send(message).unwrap();
            assert_eq!(b.recv().unwrap(), message);
        }
        // Right up against the end of the sequence space as well.
        (a.send_seq, b.recv_seq) = (u64::MAX - 2, u64::MAX - 2);
        a.send(b"late").unwrap();
        assert_eq!(b.recv().unwrap(), b"late");
    }

    #[test]
    fn sequence_exhaustion_closes_the_channel_before_a_nonce_repeats() {
        let (mut a, mut b) = pair(None);
        (a.send_seq, b.recv_seq) = (u64::MAX - 3, u64::MAX - 3);
        // A batch that needs one number more than there are: nothing goes out.
        let chunks: [&[u8]; 4] = [b"w", b"x", b"y", b"z"];
        assert!(matches!(
            a.send_vectored(&chunks),
            Err(ShieldError::ChannelClosed)
        ));
        assert_eq!(a.send_seq, u64::MAX - 3);
        // Two in a batch and one alone use the last three.
        a.send_vectored(&chunks[..2]).unwrap();
        a.send(b"last").unwrap();
        assert_eq!(a.send_seq, u64::MAX);
        assert!(matches!(
            a.send(b"one too many"),
            Err(ShieldError::ChannelClosed)
        ));
        assert!(matches!(
            a.send_vectored(&chunks[..1]),
            Err(ShieldError::ChannelClosed)
        ));
        assert_eq!(
            a.send_seq,
            u64::MAX,
            "a refused send must not wrap the sequence"
        );
        for expect in [&b"w"[..], b"x", b"last"] {
            assert_eq!(b.recv().unwrap(), expect);
        }
        // The refused sends left nothing on the wire, and a receiver at
        // the end of the sequence reads whatever the host injects as a
        // closed channel rather than trying nonces.
        assert!(matches!(b.try_recv(), Ok(None)));
        a.transport.send(vec![0u8; 64]);
        assert!(matches!(b.recv(), Err(ShieldError::ChannelClosed)));
    }

    #[test]
    fn send_and_recv_fail_once_enclave_is_marked_failed() {
        let (mut a, mut b) = pair(None);
        a.send(b"before the crash").unwrap();
        a.enclave.mark_failed();
        assert!(matches!(a.send(b"x"), Err(ShieldError::ChannelClosed)));
        assert!(matches!(a.recv(), Err(ShieldError::ChannelClosed)));
        // The peer is unaffected and still drains what was already sent.
        assert_eq!(b.recv().unwrap(), b"before the crash");
        // Respawn: the channel works again.
        a.enclave.revive();
        a.send(b"after respawn").unwrap();
        assert_eq!(b.recv().unwrap(), b"after respawn");
    }

    #[test]
    fn request_with_retry_survives_transient_empty_replies() {
        use securetf_tee::RetryPolicy;
        use std::sync::atomic::AtomicU32;

        // A transport whose first two receives spuriously time out.
        struct FlakyRecv {
            inner: ResendOnEmpty,
            failures_left: AtomicU32,
        }

        impl Transport for FlakyRecv {
            fn send(&self, message: Vec<u8>) {
                self.inner.send(message);
            }

            fn recv(&self) -> Option<Vec<u8>> {
                if self
                    .failures_left
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
                {
                    return None;
                }
                self.inner.recv()
            }
        }

        let (a_end, b_end) = duplex(None);
        let ea = enclave();
        let eb = enclave();
        let responder = std::thread::spawn(move || {
            let mut b =
                SecureChannel::handshake(ResendOnEmpty::new(b_end), eb, Role::Responder).unwrap();
            // Answer every request until the requester stops resending.
            while let Ok(req) = b.recv() {
                let mut reply = b"echo:".to_vec();
                reply.extend_from_slice(&req);
                b.send(&reply).unwrap();
            }
        });
        let mut a = SecureChannel::handshake(
            FlakyRecv {
                inner: ResendOnEmpty::new(a_end),
                failures_left: AtomicU32::new(0),
            },
            ea,
            Role::Initiator,
        )
        .unwrap();
        // Replies to re-sent requests arrive with advanced sequence numbers.
        a.set_loss_window(8);
        a.transport.failures_left.store(2, Ordering::SeqCst);
        let reply = a
            .request_with_retry(b"ping", &RetryPolicy::with_seed(5, 11))
            .expect("third attempt gets through");
        assert_eq!(reply, b"echo:ping");
        responder.join().unwrap();
    }

    #[test]
    fn request_with_retry_fails_closed_on_tamper() {
        use securetf_tee::RetryPolicy;

        let counter = Arc::new(AtomicU64::new(0));
        let c = counter.clone();
        // Corrupt the reply record (message index 3: two handshake
        // messages, the request, then the reply).
        let adversary: Adversary = Arc::new(move |_msg| {
            if c.fetch_add(1, Ordering::SeqCst) == 3 {
                Tamper::FlipBit(7)
            } else {
                Tamper::Pass
            }
        });
        let (a_end, b_end) = duplex(Some(adversary));
        let ea = enclave();
        let eb = enclave();
        let responder = std::thread::spawn(move || {
            let mut b =
                SecureChannel::handshake(ResendOnEmpty::new(b_end), eb, Role::Responder).unwrap();
            let req = b.recv().unwrap();
            b.send(&req).unwrap();
        });
        let mut a =
            SecureChannel::handshake(ResendOnEmpty::new(a_end), ea, Role::Initiator).unwrap();
        let before = a.send_seq;
        let result = a.request_with_retry(b"ping", &RetryPolicy::with_seed(6, 3));
        assert!(matches!(result, Err(ShieldError::ChannelTampered(_))));
        // Exactly one request went out: tampering is not retried.
        assert_eq!(a.send_seq, before + 1);
        responder.join().unwrap();
    }

    /// Two enclaves with the same measurement on one telemetered platform,
    /// already joined by a secure channel.
    fn telemetered_pair() -> (
        securetf_tee::Telemetry,
        SecureChannel<ResendOnEmpty>,
        SecureChannel<ResendOnEmpty>,
    ) {
        let clock = securetf_tee::SimClock::new();
        let telemetry = clock.telemetry();
        let platform = Platform::builder()
            .clock(clock)
            .telemetry(telemetry.clone())
            .build();
        let image = EnclaveImage::builder().code(b"net test").build();
        let ea = platform
            .create_enclave(&image, ExecutionMode::Hardware)
            .unwrap();
        let eb = platform
            .create_enclave(&image, ExecutionMode::Hardware)
            .unwrap();
        let (a_end, b_end) = duplex(None);
        let resp = std::thread::spawn(move || {
            SecureChannel::handshake(ResendOnEmpty::new(b_end), eb, Role::Responder).unwrap()
        });
        let a = SecureChannel::handshake(ResendOnEmpty::new(a_end), ea, Role::Initiator).unwrap();
        (telemetry, a, resp.join().unwrap())
    }

    #[test]
    fn channel_records_net_metrics() {
        let (telemetry, mut a, mut b) = telemetered_pair();
        a.send(b"four byte payloads").unwrap();
        assert_eq!(b.recv().unwrap(), b"four byte payloads");
        b.send(b"reply").unwrap();
        assert_eq!(a.recv().unwrap(), b"reply");
        // Both endpoints share one platform telemetry, so sends from
        // either side land on the same counters.
        assert_eq!(telemetry.counter("shield.net.records_sent").get(), 2);
        assert_eq!(telemetry.counter("shield.net.records_received").get(), 2);
        assert_eq!(
            telemetry.counter("shield.net.bytes_sent").get(),
            (b"four byte payloads".len() + b"reply".len()) as u64
        );
        assert_eq!(telemetry.counter("shield.net.records_rejected").get(), 0);
    }

    #[test]
    fn tampered_record_increments_rejection_counter() {
        let counter = Arc::new(AtomicU64::new(0));
        let c = counter.clone();
        let adversary: Adversary = Arc::new(move |_msg| {
            if c.fetch_add(1, Ordering::SeqCst) == 2 {
                Tamper::FlipBit(5)
            } else {
                Tamper::Pass
            }
        });
        let clock = securetf_tee::SimClock::new();
        let telemetry = clock.telemetry();
        let platform = Platform::builder()
            .clock(clock)
            .telemetry(telemetry.clone())
            .build();
        let image = EnclaveImage::builder().code(b"net test").build();
        let ea = platform
            .create_enclave(&image, ExecutionMode::Hardware)
            .unwrap();
        let eb = platform
            .create_enclave(&image, ExecutionMode::Hardware)
            .unwrap();
        let (a_end, b_end) = duplex(Some(adversary));
        let resp = std::thread::spawn(move || {
            SecureChannel::handshake(ResendOnEmpty::new(b_end), eb, Role::Responder).unwrap()
        });
        let mut a =
            SecureChannel::handshake(ResendOnEmpty::new(a_end), ea, Role::Initiator).unwrap();
        let mut b = resp.join().unwrap();
        a.send(b"important").unwrap();
        assert!(matches!(b.recv(), Err(ShieldError::ChannelTampered(_))));
        assert_eq!(telemetry.counter("shield.net.records_rejected").get(), 1);
        assert_eq!(telemetry.counter("shield.net.records_received").get(), 0);
    }

    #[test]
    fn vectored_send_interops_with_plain_recv() {
        let (mut a, mut b) = pair(None);
        let chunks: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 16 + i as usize]).collect();
        let refs: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
        a.send_vectored(&refs).unwrap();
        for chunk in &chunks {
            assert_eq!(&b.recv().unwrap(), chunk);
        }
        // The sequence keeps running: plain sends interleave cleanly.
        a.send(b"after the batch").unwrap();
        assert_eq!(b.recv().unwrap(), b"after the batch");
    }

    #[test]
    fn vectored_send_charges_one_syscall_for_the_batch() {
        let (mut a, mut b) = pair(None);
        let payload = vec![7u8; 1000];
        // Baseline: 3 individual sends = 3 syscalls.
        let t0 = a.enclave.clock().now_ns();
        for _ in 0..3 {
            a.send(&payload).unwrap();
        }
        let individual_ns = a.enclave.clock().now_ns() - t0;
        // Gather path: same 3 chunks, 1 syscall.
        let t0 = a.enclave.clock().now_ns();
        a.send_vectored(&[&payload, &payload, &payload]).unwrap();
        let vectored_ns = a.enclave.clock().now_ns() - t0;
        assert!(
            vectored_ns < individual_ns,
            "vectored {vectored_ns} !< individual {individual_ns}"
        );
        for _ in 0..6 {
            assert_eq!(b.recv().unwrap(), payload);
        }
    }

    #[test]
    fn vectored_send_counts_records_and_batches() {
        let (telemetry, mut a, mut b) = telemetered_pair();
        a.send_vectored(&[b"one", b"two", b"three"]).unwrap();
        a.send_vectored(&[]).unwrap(); // no-op: no records, no batch
        assert_eq!(telemetry.counter("shield.net.vectored_sends").get(), 1);
        assert_eq!(telemetry.counter("shield.net.records_sent").get(), 3);
        assert_eq!(telemetry.counter("shield.net.bytes_sent").get(), 11);
        for expect in [&b"one"[..], b"two", b"three"] {
            assert_eq!(b.recv().unwrap(), expect);
        }
    }

    #[test]
    fn vectored_chunks_are_individually_tamper_protected() {
        let counter = Arc::new(AtomicU64::new(0));
        let c = counter.clone();
        // Handshake (0,1) passes; corrupt the batch's second record.
        let adversary: Adversary = Arc::new(move |_msg| {
            if c.fetch_add(1, Ordering::SeqCst) == 3 {
                Tamper::FlipBit(4)
            } else {
                Tamper::Pass
            }
        });
        let (mut a, mut b) = pair(Some(adversary));
        a.send_vectored(&[b"alpha", b"beta", b"gamma"]).unwrap();
        assert_eq!(b.recv().unwrap(), b"alpha");
        assert!(matches!(b.recv(), Err(ShieldError::ChannelTampered(_))));
    }

    #[test]
    fn vectored_send_fails_closed_on_failed_enclave() {
        let (mut a, _b) = pair(None);
        a.enclave.mark_failed();
        assert!(matches!(
            a.send_vectored(&[b"x"]),
            Err(ShieldError::ChannelClosed)
        ));
    }

    #[test]
    fn sealed_telemetry_ships_over_channel_and_fails_closed_on_tamper() {
        use securetf_tee::telemetry::ExportError;

        let (telemetry, mut a, mut b) = telemetered_pair();
        a.send(b"generate some traffic").unwrap();
        b.recv().unwrap();

        let snapshot = telemetry.snapshot();
        let sealed = a.enclave.seal_telemetry(&snapshot).unwrap();

        // Ship the sealed snapshot through the shielded channel and open
        // it on the other side: same measurement, same platform.
        a.send_telemetry(&sealed).unwrap();
        let arrived = b.recv_telemetry().unwrap();
        let opened = b.enclave.unseal_telemetry(&arrived).unwrap();
        assert_eq!(opened.digest(), snapshot.digest());

        // A tampered sealed blob fails closed with a typed error.
        let mut bytes = arrived.as_bytes().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let tampered = SealedSnapshot::from_bytes(bytes);
        assert!(matches!(
            b.enclave.unseal_telemetry(&tampered),
            Err(ExportError::Integrity)
        ));
    }
}
