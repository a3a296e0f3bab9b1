//! The database facade: options, write batches, and the [`Db`] itself.

pub mod batch;
#[allow(clippy::module_inception)]
pub mod db;
pub mod metrics;
pub mod options;
pub mod pool;
pub mod replica;
pub mod sharded;
pub(crate) mod view;

pub use batch::WriteBatch;
pub use db::{Db, DbIterator, Snapshot};
pub use metrics::{LevelStats, MetricsReport, METRICS_SCHEMA, OP_TYPES};
pub use options::{Options, ReadOptions, ShardBy, WriteOptions};
pub use pool::{JobClass, JobPool};
pub use replica::{ReplicaDb, ReplicaOptions, REPLICA_METRICS_SCHEMA};
pub use sharded::{ShardedDb, ShardedDbIterator, ShardedSnapshot, SHARDED_METRICS_SCHEMA};
