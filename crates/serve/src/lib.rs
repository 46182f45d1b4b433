//! `dcdiff-serve`: the network front door of the DCDiff receiver.
//!
//! The paper's deployment story is fleets of senders streaming DC-dropped
//! JPEGs to a receiver that recovers the missing DC plane; this crate turns
//! the batch-oriented [`dcdiff_runtime`] into a long-lived service for that
//! traffic. It is std-only — blocking sockets, a thread per connection, and
//! the runtime's bounded queue as the single backpressure point — with
//! three deliberate control surfaces:
//!
//! - **Admission control / load shedding** ([`DeadlineClass`]): each
//!   request names a deadline class; a class is only admitted while the
//!   queue is shallower than its `admit_below` fraction, so bulk traffic
//!   sheds first and interactive traffic is protected to the last slot.
//! - **Per-client fairness** ([`ServeConfig::per_client_inflight`]): one
//!   client IP cannot occupy more than a fixed number of queue slots.
//! - **Graceful drain** ([`Server::drain`], SIGTERM/SIGINT via
//!   [`signal`]): stop accepting, answer new work with 503, let every
//!   admitted job deliver its response, then drain the runtime.
//!
//! Responses are content-negotiated: the full recovered image as PPM by
//! default, or just the estimated DC plane (one sample per 8×8 block) as
//! PGM for `Accept: image/x-portable-graymap`. A blocking [`Client`] lives
//! alongside the server so tests, `dcdiff submit` and `serve_bench` speak
//! the exact wire format the server implements.
//!
//! Everything observable is published as registered `serve.*` telemetry
//! series (see [`dcdiff_telemetry::names`]).

// Untrusted bytes and job execution must never panic (ANALYSIS.md).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::disallowed_macros
)]
#![cfg_attr(test, allow(clippy::disallowed_macros))]
#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod http;
pub mod server;
pub mod signal;

pub use client::{Client, HttpResponse};
pub use config::{DeadlineClass, ServeConfig};
pub use server::{dc_plane_pgm, DrainReport, Server};
