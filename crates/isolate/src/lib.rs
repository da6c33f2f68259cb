#![warn(missing_docs)]
//! # sts-isolate — the worker wire protocol and its transport
//!
//! `catch_unwind` (the in-process supervised pool) contains panics,
//! but not the failure modes that actually kill long batch jobs at
//! production scale: aborts, stack overflows, OOM kills, and wedged
//! computations that never reach a cancellation checkpoint. The
//! standard answer is process-level isolation — a crashed worker must
//! cost one chunk, not the job. This crate supplies the wire it runs
//! over, measure-free and std-only:
//!
//! * [`protocol`] — a length-prefixed line protocol (same in-repo text
//!   style as the matrix tile and `sts-traj::io` formats), whose length
//!   prefix makes *garbage output* a detectable [`ProtocolError`]
//!   instead of silent corruption;
//! * [`transport`] — those frames over TCP loopback: a [`FrameConn`]
//!   with socket read deadlines and an injectable [`NetInjector`] chaos
//!   seam (drop/delay/corrupt/duplicate/disconnect/wedge), the
//!   substrate of the streaming service's client protocol and the
//!   network-chaos suite in `sts-robust`.
//!
//! The crate moves frames, never trajectories. `sts-core` builds the
//! STS worker loop and the one worker fleet on top: its lease
//! coordinator (`sts_core::shard`) spawns `sts-worker serve-tcp`
//! processes, deals them pair chunks or tiles over [`FrameConn`]s,
//! kills them on hard timeouts and attributes their crashes. That
//! keeps `sts-isolate` below `sts-core` in the dependency DAG — the
//! same layering discipline as `sts-runtime`.

pub mod protocol;
pub mod transport;

pub use protocol::{ProtocolError, MAX_FRAME_BYTES};
pub use transport::{is_timeout, FrameConn, NetDirection, NetFault, NetInjector};
