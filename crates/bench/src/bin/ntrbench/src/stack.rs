//! Set-up: everything between a seed and a system ready for its first
//! measured operation. `setup_s` times exactly this.

use crate::api::{self, BoxedEncoder, Pipeline, SearchIndex, Server, TableCorpus};
use crate::client::Client;
use crate::stats::{windowed, Windowed};
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tables whose text trains the WordPiece vocabulary.
const VOCAB_TABLES: usize = 256;
/// Connections of the load generator; the reference box has two cores.
pub const N_CONNS: usize = 2;

/// What every workload needs: generated tables, the trained pipeline and a
/// teacher model with the weights the server's replicas also get.
pub struct Offline {
    pub corpus: TableCorpus,
    pub pipeline: Pipeline,
    pub teacher: BoxedEncoder,
}

pub fn offline(seed: u64, n_tables: usize) -> Offline {
    let world = api::world(seed);
    let corpus = api::corpus(&world, n_tables, seed);
    let pipeline = api::pipeline(&corpus.tables[..n_tables.min(VOCAB_TABLES)]);
    let teacher = api::encoder(api::teacher_f32(), &pipeline);
    Offline {
        corpus,
        pipeline,
        teacher,
    }
}

/// [`Offline`] plus a running server that has answered a `health` request
/// over one of the load generator's connections.
pub struct Serving {
    pub offline: Offline,
    pub server: Server,
    pub client: Client,
}

pub fn serving(seed: u64, n_tables: usize, index_dir: Option<&Path>) -> io::Result<Serving> {
    let offline = offline(seed, n_tables);
    let index = match index_dir {
        Some(dir) => Some(Arc::new(
            SearchIndex::open(dir).map_err(|e| io::Error::other(e.to_string()))?,
        )),
        None => None,
    };
    let server = api::start_server(api::pipeline_like(&offline.pipeline), index)?;
    let mut client = Client::connect(server.addr(), N_CONNS)?;
    let health = client.round_trip(b"{\"cmd\": \"health\"}\n", Duration::from_secs(10))?;
    if !health.contains("\"ok\"") {
        return Err(io::Error::other(format!("health answered {health}")));
    }
    Ok(Serving {
        offline,
        server,
        client,
    })
}

impl Serving {
    /// Stops the server; returns what outlives it and its counters over its
    /// whole life.
    pub fn stop(self) -> (Offline, api::ServerStats) {
        drop(self.client);
        self.server.stop();
        (self.offline, self.server.wait())
    }
}

/// Sets up three times, discarding the first two systems, and returns the
/// third with the median (and spread) of the three times in seconds.
pub fn median_of_three_setups<T>(
    mut set_up: impl FnMut() -> io::Result<T>,
    mut discard: impl FnMut(T),
) -> io::Result<(T, Windowed)> {
    let mut times = Vec::with_capacity(3);
    let mut last = None;
    for _ in 0..3 {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        let t0 = Instant::now();
        last = Some(set_up()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("three set-ups ran"), windowed(&times)))
}
