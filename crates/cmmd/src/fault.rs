//! Deterministic fault injection for the simulated CMMD fabric.
//!
//! A [`FaultPlan`] pairs a `u64` seed with a [`FaultProfile`] describing
//! per-edge drop/duplication/corruption probabilities, bounded delivery
//! delay, and per-node slowdown/stall. Every fault decision is a pure
//! function of `(seed, stream, src, dst, seq, attempt)` hashed through
//! splitmix64 — **never** of host scheduling — so a chaos run is exactly
//! reproducible: the same seed yields the same faults, the same retries,
//! the same virtual-time charges, and (for survivable schedules) the same
//! labels as the fault-free run.
//!
//! Faults apply to the point-to-point data network only. The control
//! network (barriers, reductions, concatenation) is modelled as reliable,
//! as on the real CM-5; per-node stall and slowdown still perturb the
//! virtual clocks feeding collectives.
//!
//! When a plan is attached, point-to-point payloads travel in framed form:
//! a 12-byte header (`seq` as two little-endian `u32` words, then a CRC-32
//! of the payload) ahead of the payload bytes. The receiver discards
//! corrupt frames (CRC mismatch) and duplicates (sequence number below the
//! next expected), so the reliable-delivery layer in
//! [`crate::runtime::Node`] presents the exact fault-free byte stream to
//! the node program — or reports [`Fault::LinkDead`] once
//! [`RetryPolicy::max_retries`] is exhausted.

/// Framed-transport header length in bytes (`seq_lo`, `seq_hi`, `crc`).
pub const FRAME_HEADER_LEN: usize = 12;

/// Hash-stream constants: one per fault decision so the decisions are
/// independent draws.
const S_DROP: u64 = 0x00D1;
const S_CORRUPT: u64 = 0x00C2;
const S_DUP: u64 = 0x00D2;
const S_DELAY: u64 = 0x00DE;
const S_STALL: u64 = 0x005A;
const S_SLOW: u64 = 0x0051;

/// Bounded-retry policy for the reliable transport layered over a faulty
/// fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retransmissions attempted after the first send before the link is
    /// declared dead.
    pub max_retries: u32,
    /// Virtual-time cost of detecting a lost or corrupted frame (the ack
    /// timeout), nanoseconds.
    pub timeout_ns: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 8,
            timeout_ns: 250_000.0,
        }
    }
}

/// The kinds of fault and recovery events a chaos run can record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A frame was dropped in flight (never delivered).
    Drop,
    /// A frame was delivered twice.
    Duplicate,
    /// A frame was delivered with a corrupted payload.
    Corrupt,
    /// A frame's delivery was delayed in virtual time.
    Delay,
    /// A node stalled (virtual-time pause) before a communication call.
    Stall,
    /// The sender timed out and retransmitted.
    Retry,
    /// Retries were exhausted; the link (and its destination) is declared
    /// dead.
    LinkDead,
    /// A peer died mid-protocol (its channel disconnected).
    PeerDown,
    /// The run abandoned the message-passing engine and fell back to the
    /// host pipeline.
    Degraded,
}

impl FaultKind {
    /// Stable lower-case label used in telemetry and journals.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "dup",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Delay => "delay",
            FaultKind::Stall => "stall",
            FaultKind::Retry => "retry",
            FaultKind::LinkDead => "link_dead",
            FaultKind::PeerDown => "peer_down",
            FaultKind::Degraded => "degraded",
        }
    }
}

/// One injected fault or recovery action, recorded on the side that
/// *decided* it (the sender for link faults) so event streams stay
/// deterministic under host-thread scheduling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// What happened.
    pub kind: FaultKind,
    /// Source rank of the affected link (or the stalled/dead node).
    pub src: u32,
    /// Destination rank of the affected link (== `src` for node faults).
    pub dst: u32,
    /// Transport sequence number on the link (0 for node faults).
    pub seq: u64,
    /// Virtual time of the event on the recording node, nanoseconds.
    pub ts_ns: f64,
}

/// Aggregate fault counters for one node (or, folded, one run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Frames dropped in flight.
    pub drops: u64,
    /// Frames delivered twice.
    pub duplicates: u64,
    /// Frames delivered corrupted.
    pub corruptions: u64,
    /// Frames delivered late.
    pub delays: u64,
    /// Node stalls.
    pub stalls: u64,
    /// Retransmissions.
    pub retries: u64,
    /// Links declared dead.
    pub links_dead: u64,
}

impl FaultCounters {
    /// Folds another node's counters into this one.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.drops += other.drops;
        self.duplicates += other.duplicates;
        self.corruptions += other.corruptions;
        self.delays += other.delays;
        self.stalls += other.stalls;
        self.retries += other.retries;
        self.links_dead += other.links_dead;
    }

    /// Total injected faults (excluding recovery events).
    pub fn total_faults(&self) -> u64 {
        self.drops + self.duplicates + self.corruptions + self.delays + self.stalls
    }
}

/// Fault intensity knobs. All probabilities are per frame attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Probability a frame is dropped in flight.
    pub drop_p: f64,
    /// Probability a frame is duplicated.
    pub dup_p: f64,
    /// Probability a frame's payload is corrupted.
    pub corrupt_p: f64,
    /// Upper bound on extra delivery delay, virtual nanoseconds.
    pub max_delay_ns: f64,
    /// Probability a node stalls before a communication call.
    pub stall_p: f64,
    /// Stall duration, virtual nanoseconds.
    pub stall_ns: f64,
    /// Upper bound on a node's compute slowdown factor (1.0 = none).
    pub max_slowdown: f64,
}

/// Names of the built-in profiles, in the order used by CI's chaos matrix.
pub const PROFILE_NAMES: &[&str] = &[
    "none",
    "drop",
    "dup",
    "corrupt",
    "delay",
    "slow",
    "storm",
    "blackhole",
];

impl FaultProfile {
    /// No faults at all (framing still active — useful for transport
    /// tests).
    pub fn none() -> Self {
        Self {
            drop_p: 0.0,
            dup_p: 0.0,
            corrupt_p: 0.0,
            max_delay_ns: 0.0,
            stall_p: 0.0,
            stall_ns: 0.0,
            max_slowdown: 1.0,
        }
    }

    /// Frames are dropped with 5% probability.
    pub fn drop() -> Self {
        Self {
            drop_p: 0.05,
            ..Self::none()
        }
    }

    /// Frames are duplicated with 8% probability.
    pub fn dup() -> Self {
        Self {
            dup_p: 0.08,
            ..Self::none()
        }
    }

    /// Frame payloads are corrupted with 5% probability.
    pub fn corrupt() -> Self {
        Self {
            corrupt_p: 0.05,
            ..Self::none()
        }
    }

    /// Frames arrive up to 2 virtual milliseconds late.
    pub fn delay() -> Self {
        Self {
            max_delay_ns: 2_000_000.0,
            ..Self::none()
        }
    }

    /// Nodes compute up to 4× slower and stall for 0.5 virtual
    /// milliseconds with 2% probability per communication call.
    pub fn slow() -> Self {
        Self {
            stall_p: 0.02,
            stall_ns: 500_000.0,
            max_slowdown: 4.0,
            ..Self::none()
        }
    }

    /// Everything at once, at survivable intensity.
    pub fn storm() -> Self {
        Self {
            drop_p: 0.03,
            dup_p: 0.03,
            corrupt_p: 0.03,
            max_delay_ns: 1_000_000.0,
            stall_p: 0.01,
            stall_ns: 250_000.0,
            max_slowdown: 2.0,
        }
    }

    /// Every frame is dropped: the first remote send exhausts its retries
    /// and the run degrades to the host fallback. Unsurvivable by design.
    pub fn blackhole() -> Self {
        Self {
            drop_p: 1.0,
            ..Self::none()
        }
    }

    /// Looks a profile up by its [`PROFILE_NAMES`] name.
    pub fn by_name(name: &str) -> Option<Self> {
        Some(match name {
            "none" => Self::none(),
            "drop" => Self::drop(),
            "dup" => Self::dup(),
            "corrupt" => Self::corrupt(),
            "delay" => Self::delay(),
            "slow" => Self::slow(),
            "storm" => Self::storm(),
            "blackhole" => Self::blackhole(),
            _ => return None,
        })
    }
}

/// Per-frame fault decision for one transmission attempt. At most one of
/// `drop`/`corrupt` is set; `dup` and `delay_ns` only apply to frames that
/// are actually delivered intact.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkOutcome {
    /// The frame never arrives.
    pub drop: bool,
    /// The frame arrives with a corrupted payload.
    pub corrupt: bool,
    /// The frame arrives twice.
    pub dup: bool,
    /// Extra delivery delay, virtual nanoseconds.
    pub delay_ns: f64,
}

/// A seeded, deterministic fault schedule: the seed, the profile, and the
/// retry policy that must survive it.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The schedule seed.
    pub seed: u64,
    /// The fault intensity profile.
    pub profile: FaultProfile,
    /// The profile's name (for reports and journals).
    pub profile_name: String,
    /// Retry/timeout policy of the reliable transport.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// A plan with the named built-in profile; `None` if the name is
    /// unknown.
    pub fn new(seed: u64, profile_name: &str) -> Option<Self> {
        Some(Self {
            seed,
            profile: FaultProfile::by_name(profile_name)?,
            profile_name: profile_name.to_string(),
            retry: RetryPolicy::default(),
        })
    }

    /// Parses a `--chaos` argument: `SEED[:PROFILE]`, seed decimal or
    /// `0x`-hex, profile defaulting to `storm`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (seed_str, profile) = match spec.split_once(':') {
            Some((s, p)) => (s, p),
            None => (spec, "storm"),
        };
        let seed = match seed_str.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => seed_str.parse(),
        }
        .map_err(|_| format!("bad chaos seed {seed_str:?}"))?;
        FaultPlan::new(seed, profile).ok_or_else(|| {
            format!(
                "unknown chaos profile {profile:?}; valid choices are: {}",
                PROFILE_NAMES.join(", ")
            )
        })
    }

    fn hash(&self, stream: u64, a: u64, b: u64, c: u64, d: u64) -> u64 {
        let mut h = splitmix64(self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        h = splitmix64(h ^ a);
        h = splitmix64(h ^ b);
        h = splitmix64(h ^ c);
        h = splitmix64(h ^ d);
        h
    }

    /// The fault decision for attempt `attempt` of frame `seq` on link
    /// `src → dst`. Pure: depends only on the plan and the arguments.
    pub fn sample_link(&self, src: usize, dst: usize, seq: u64, attempt: u32) -> LinkOutcome {
        let (s, d, a) = (src as u64, dst as u64, attempt as u64);
        if u01(self.hash(S_DROP, s, d, seq, a)) < self.profile.drop_p {
            return LinkOutcome {
                drop: true,
                ..LinkOutcome::default()
            };
        }
        let corrupt = u01(self.hash(S_CORRUPT, s, d, seq, a)) < self.profile.corrupt_p;
        let dup = !corrupt && u01(self.hash(S_DUP, s, d, seq, a)) < self.profile.dup_p;
        let delay_ns = if self.profile.max_delay_ns > 0.0 && !corrupt {
            u01(self.hash(S_DELAY, s, d, seq, a)) * self.profile.max_delay_ns
        } else {
            0.0
        };
        LinkOutcome {
            drop: false,
            corrupt,
            dup,
            delay_ns,
        }
    }

    /// The node's fixed compute-slowdown factor (≥ 1.0).
    pub fn node_slowdown(&self, rank: usize) -> f64 {
        if self.profile.max_slowdown <= 1.0 {
            return 1.0;
        }
        1.0 + u01(self.hash(S_SLOW, rank as u64, 0, 0, 0)) * (self.profile.max_slowdown - 1.0)
    }

    /// Whether the node stalls before its `op`-th communication call, and
    /// for how long.
    pub fn sample_stall(&self, rank: usize, op: u64) -> Option<f64> {
        if self.profile.stall_p > 0.0
            && u01(self.hash(S_STALL, rank as u64, op, 0, 0)) < self.profile.stall_p
        {
            Some(self.profile.stall_ns)
        } else {
            None
        }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` from a hash.
fn u01(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// CRC-32 (IEEE, reflected) of `data` — bitwise, no table, fast enough
/// for simulated frames.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Encodes one transport frame: `seq` + CRC-32 header, then the payload.
/// With `corrupt` set, one payload byte (chosen from `seq`) is flipped
/// *after* the CRC is computed, so the receiver's check fails; an empty
/// payload corrupts the CRC field itself.
pub fn encode_frame(seq: u64, payload: &[u8], corrupt: bool) -> Vec<u8> {
    let mut b = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    let crc = crc32(payload);
    // `seq` little-endian is the two header words, low word first.
    b.extend_from_slice(&seq.to_le_bytes());
    if corrupt && payload.is_empty() {
        b.extend_from_slice(&(crc ^ 0xDEAD_BEEF).to_le_bytes());
    } else {
        b.extend_from_slice(&crc.to_le_bytes());
    }
    b.extend_from_slice(payload);
    if corrupt && !payload.is_empty() {
        let idx = FRAME_HEADER_LEN + seq as usize % payload.len();
        b[idx] ^= 0xA5;
    }
    b
}

/// Decodes a transport frame, stripping the header in place; `Err` for
/// truncated headers or CRC mismatches (i.e. corrupted frames).
pub fn decode_frame(mut b: Vec<u8>) -> Result<(u64, Vec<u8>), FrameError> {
    if b.len() < FRAME_HEADER_LEN {
        return Err(FrameError::Truncated { len: b.len() });
    }
    let seq = u64::from_le_bytes(b[..8].try_into().expect("8-byte seq field"));
    let crc = u32::from_le_bytes(b[8..FRAME_HEADER_LEN].try_into().expect("4-byte CRC field"));
    if crc32(&b[FRAME_HEADER_LEN..]) != crc {
        return Err(FrameError::BadCrc);
    }
    b.drain(..FRAME_HEADER_LEN);
    Ok((seq, b))
}

/// Why a transport frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than the frame header.
    Truncated {
        /// The observed length.
        len: usize,
    },
    /// The payload CRC did not match the header.
    BadCrc,
}

/// A fault that escaped the recovery machinery: the node program must
/// abort and the driver degrade to the host fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Retries exhausted on a link; the destination is unreachable.
    LinkDead {
        /// Sending rank.
        src: usize,
        /// Unreachable rank.
        dst: usize,
        /// Sequence number of the undeliverable frame.
        seq: u64,
    },
    /// A peer's channel disconnected mid-protocol (the peer aborted).
    PeerDown {
        /// This rank.
        rank: usize,
        /// The dead peer.
        peer: usize,
    },
    /// A collective was poisoned because some node aborted.
    CollectivePoisoned {
        /// This rank.
        rank: usize,
    },
    /// A payload failed to decode after transport-level recovery (should
    /// not happen; indicates a protocol bug rather than an injected
    /// fault).
    Malformed {
        /// This rank.
        rank: usize,
        /// What failed to decode.
        what: &'static str,
    },
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::LinkDead { src, dst, seq } => {
                write!(f, "link {src}->{dst} dead (frame {seq} undeliverable)")
            }
            Fault::PeerDown { rank, peer } => write!(f, "node {rank}: peer {peer} down"),
            Fault::CollectivePoisoned { rank } => write!(f, "node {rank}: collective poisoned"),
            Fault::Malformed { rank, what } => write!(f, "node {rank}: malformed {what}"),
        }
    }
}

impl std::error::Error for Fault {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic() {
        let plan = FaultPlan::new(42, "storm").unwrap();
        for seq in 0..100u64 {
            for attempt in 0..3 {
                assert_eq!(
                    plan.sample_link(1, 3, seq, attempt),
                    plan.sample_link(1, 3, seq, attempt)
                );
            }
        }
        assert_eq!(plan.node_slowdown(5), plan.node_slowdown(5));
        assert_eq!(plan.sample_stall(2, 17), plan.sample_stall(2, 17));
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(1, "storm").unwrap();
        let b = FaultPlan::new(2, "storm").unwrap();
        let outcomes_a: Vec<_> = (0..200).map(|s| a.sample_link(0, 1, s, 0)).collect();
        let outcomes_b: Vec<_> = (0..200).map(|s| b.sample_link(0, 1, s, 0)).collect();
        assert_ne!(outcomes_a, outcomes_b);
    }

    #[test]
    fn drop_rate_is_roughly_calibrated() {
        let plan = FaultPlan::new(7, "drop").unwrap();
        let n = 20_000;
        let drops = (0..n)
            .filter(|&s| plan.sample_link(0, 1, s, 0).drop)
            .count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.01, "drop rate {rate}");
    }

    #[test]
    fn none_profile_injects_nothing() {
        let plan = FaultPlan::new(999, "none").unwrap();
        for seq in 0..500 {
            assert_eq!(plan.sample_link(0, 1, seq, 0), LinkOutcome::default());
        }
        assert_eq!(plan.node_slowdown(0), 1.0);
        assert_eq!(plan.sample_stall(0, 1), None);
    }

    #[test]
    fn blackhole_drops_everything() {
        let plan = FaultPlan::new(3, "blackhole").unwrap();
        for attempt in 0..20 {
            assert!(plan.sample_link(0, 1, 0, attempt).drop);
        }
    }

    #[test]
    fn parse_accepts_seed_and_profile() {
        let p = FaultPlan::parse("42").unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(p.profile_name, "storm");
        let p = FaultPlan::parse("0xBEEF:drop").unwrap();
        assert_eq!(p.seed, 0xBEEF);
        assert_eq!(p.profile_name, "drop");
        assert!(FaultPlan::parse("nope").is_err());
        assert!(FaultPlan::parse("1:nosuch").is_err());
    }

    #[test]
    fn every_named_profile_resolves() {
        for name in PROFILE_NAMES {
            assert!(FaultProfile::by_name(name).is_some(), "{name}");
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn frame_roundtrip() {
        let payload = b"hello, fabric".to_vec();
        let frame = encode_frame(0x1_0000_0007, &payload, false);
        let (seq, got) = decode_frame(frame).unwrap();
        assert_eq!(seq, 0x1_0000_0007);
        assert_eq!(got, payload);
    }

    #[test]
    fn corrupt_frames_fail_crc() {
        let payload = b"hello";
        let frame = encode_frame(9, payload, true);
        assert_eq!(decode_frame(frame), Err(FrameError::BadCrc));
        // Empty payloads are corrupted via the CRC field.
        let frame = encode_frame(9, &[], true);
        assert_eq!(decode_frame(frame), Err(FrameError::BadCrc));
    }

    #[test]
    fn frame_bytes_are_pinned() {
        // The wire layout: seq low word, seq high word, CRC-32, payload,
        // all little-endian. Virtual time is charged per frame byte, so
        // these bytes fix the chaos runs' clocks.
        let seq = 0x0102_0304_0506_0709;
        let cases: [(&[u8], bool, &[u8]); 4] = [
            (
                b"abc",
                false,
                &[9, 7, 6, 5, 4, 3, 2, 1, 194, 65, 36, 53, 97, 98, 99],
            ),
            // One payload byte flipped after the CRC: `seq % 3 == 1`.
            (
                b"abc",
                true,
                &[9, 7, 6, 5, 4, 3, 2, 1, 194, 65, 36, 53, 97, 199, 99],
            ),
            (b"", false, &[9, 7, 6, 5, 4, 3, 2, 1, 0, 0, 0, 0]),
            // An empty payload corrupts the CRC field: 0 ^ 0xDEAD_BEEF.
            (b"", true, &[9, 7, 6, 5, 4, 3, 2, 1, 239, 190, 173, 222]),
        ];
        for (payload, corrupt, want) in cases {
            let frame = encode_frame(seq, payload, corrupt);
            assert_eq!(frame, want, "{payload:?} corrupt={corrupt}");
        }
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let mut truncated = encode_frame(1, b"xy", false);
        truncated.truncate(5);
        assert_eq!(
            decode_frame(truncated),
            Err(FrameError::Truncated { len: 5 })
        );
    }
}
