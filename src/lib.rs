//! Umbrella crate re-exporting the p2pmon workspace.
pub use p2pmon_alerters as alerters;
pub use p2pmon_core as core;
pub use p2pmon_dht as dht;
pub use p2pmon_filter as filter;
pub use p2pmon_net as net;
pub use p2pmon_p2pml as p2pml;
pub use p2pmon_streams as streams;
pub use p2pmon_workloads as workloads;
pub use p2pmon_xmlkit as xmlkit;
