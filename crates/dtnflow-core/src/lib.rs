//! Shared vocabulary for the DTN-FLOW reproduction.
//!
//! This crate holds the types every other crate in the workspace speaks:
//! entity identifiers ([`NodeId`], [`LandmarkId`], [`PacketId`]), simulation
//! time ([`SimTime`], [`SimDuration`]), the [`Packet`] record, planar
//! [`geometry`], run-level [`metrics`], and small deterministic random
//! sampling helpers used by the synthetic trace generators.
//!
//! Nothing here knows about routing or simulation mechanics; those live in
//! `dtnflow-sim`, `dtnflow-router` and `dtnflow-baselines`.

#![forbid(unsafe_code)]

pub mod config;
pub mod dense;
pub mod geometry;
pub mod ids;
pub mod metrics;
pub mod packet;
pub mod rankidx;
pub mod rngutil;
pub mod time;
pub mod wheel;

pub use config::SimConfig;
pub use dense::{DenseKey, DenseMap, DenseSet, LinkMatrix};
pub use geometry::Point;
pub use ids::{LandmarkId, NodeId, PacketId};
pub use metrics::{MetricsSummary, RunMetrics};
pub use packet::{Packet, PacketLoc, StationPath};
pub use rankidx::{RankEntry, RankIndex};
pub use time::{SimDuration, SimTime, DAY, HOUR, MINUTE, SECOND};
pub use wheel::{TimingWheel, WheelEntry};
