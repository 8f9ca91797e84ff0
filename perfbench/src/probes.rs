//! Layer probes: the mapper, the transparent cache and the DRAM model
//! driven directly through their public entry points, on a workload's
//! own tenants, so each layer's host cost is timed in isolation.

use camdn_cache::{Nec, SharedCache};
use camdn_common::config::SocConfig;
use camdn_dram::DramModel;
use camdn_mapper::{
    lower, LowerMode, MapperConfig, MappingCandidate, ModelMapping, PlanCache, PlanCacheStats,
    PlanSizes,
};
use camdn_models::{Model, WeightClass};
use camdn_runtime::TaskLayout;
use std::sync::Arc;
use std::time::Instant;

/// A cold map of a tenant list into one fresh plan cache.
pub struct MapProbe {
    pub cache: Arc<PlanCache>,
    pub layers: u64,
    /// See [`hit_rate`].
    pub hit_rate: f64,
}

pub fn map_models(models: &[Model], mapper: &MapperConfig) -> MapProbe {
    let cache = Arc::new(PlanCache::new());
    let layers: u64 = models
        .iter()
        .map(|m| cache.map_model(m, mapper).mcts.len() as u64)
        .sum();
    let hit_rate = hit_rate(&cache.stats());
    MapProbe {
        cache,
        layers,
        hit_rate,
    }
}

/// Share of plan-cache lookups, whole-model and per-layer, that hit.
pub fn hit_rate(s: &PlanCacheStats) -> f64 {
    let hits = s.model_hits + s.layer_hits;
    hits as f64 / (hits + s.model_misses + s.layer_misses).max(1) as f64
}

/// One layer kernel replayed over a transfer stream.
pub struct KernelProbe {
    pub lines: u64,
    pub ns_per_line: f64,
    /// Cache hit rate (cache probe) or DRAM row-buffer hit rate (DRAM
    /// probe).
    pub hit_rate: f64,
}

/// `(address, bytes, write)` of one transfer.
type Access = (camdn_common::types::PhysAddr, u64, bool);

/// The transfer stream of `models` as co-located tenants, interleaved
/// layer by layer: layer 0 of every tenant, then layer 1, and so on.
/// `pick` chooses each layer's candidate and `keep` filters transfers.
fn stream(
    models: &[Model],
    plans: &PlanCache,
    mapper: &MapperConfig,
    mode: LowerMode,
    pick: impl Fn(&ModelMapping, usize) -> &MappingCandidate,
    keep: impl Fn(&camdn_mapper::Transfer) -> bool,
) -> Vec<Access> {
    let tenants: Vec<_> = models
        .iter()
        .enumerate()
        .map(|(i, m)| (m, plans.map_model(m, mapper), TaskLayout::new(i as u32, m)))
        .collect();
    let depth = models.iter().map(|m| m.layers.len()).max().unwrap_or(0);
    let mut out = Vec::new();
    for l in 0..depth {
        for (model, mapping, layout) in &tenants {
            let Some(layer) = model.layers.get(l) else {
                continue;
            };
            let sizes = PlanSizes {
                weight: layer.weight_operand_bytes(),
                input: layer.input_bytes(),
                output: layer.output_bytes(),
                bias: match layer.weight_class {
                    WeightClass::Static => layer.nest.bias_bytes(),
                    _ => 0,
                },
            };
            let weight_is_act = layer.weight_class == WeightClass::Activation;
            let plan = lower(pick(mapping, l), sizes, mode);
            for tr in plan.phases.iter().flat_map(|p| &p.transfers) {
                if keep(tr) {
                    let addr = layout.addr_of(l, tr.tensor, weight_is_act, sizes.input, tr.offset);
                    out.push((addr, tr.bytes, tr.write));
                }
            }
        }
    }
    out
}

fn lines_of(stream: &[Access], line: u64) -> u64 {
    stream.iter().map(|a| a.1.div_ceil(line)).sum()
}

/// Replays the tenants' baseline (cache-unaware) transfer stream through
/// `SharedCache::access_range`, as the transparent-cache systems do.
pub fn cache_kernel(
    models: &[Model],
    plans: &PlanCache,
    mapper: &MapperConfig,
    soc: &SocConfig,
) -> KernelProbe {
    let accesses = stream(
        models,
        plans,
        mapper,
        LowerMode::Transparent,
        |m, l| &m.baseline[l],
        |_| true,
    );
    let mut cache = SharedCache::new(&soc.cache);
    let mut dram = DramModel::new(soc.dram, soc.cache.line_bytes);
    let mask = cache.full_way_mask();
    let t0 = Instant::now();
    let mut now = 0;
    for &(addr, bytes, write) in &accesses {
        now = cache
            .access_range(now, addr, bytes, write, mask, &mut dram)
            .finish
            .max(now);
    }
    let wall = t0.elapsed().as_secs_f64();
    let lines = lines_of(&accesses, soc.cache.line_bytes);
    KernelProbe {
        lines,
        ns_per_line: wall * 1e9 / lines.max(1) as f64,
        hit_rate: cache.stats().hit_rate(),
    }
}

/// Replays the DRAM-touching transfers of the tenants' CaMDN lowering
/// (each layer's largest candidate within an equal split of the NPU
/// pages) through `DramModel::access_burst`.
pub fn dram_kernel(
    models: &[Model],
    plans: &PlanCache,
    mapper: &MapperConfig,
    soc: &SocConfig,
) -> KernelProbe {
    let share = Nec::new(&soc.cache).npu_pages() / models.len().max(1) as u32;
    let accesses = stream(
        models,
        plans,
        mapper,
        LowerMode::Camdn,
        |m, l| m.mcts[l].best_lwm_within(share),
        |tr| tr.route.touches_dram(),
    );
    let line = soc.cache.line_bytes;
    let mut dram = DramModel::new(soc.dram, line);
    let t0 = Instant::now();
    let mut now = 0;
    for &(addr, bytes, write) in &accesses {
        now = dram
            .access_burst(now, addr, bytes.div_ceil(line), write, 0)
            .max(now);
    }
    let wall = t0.elapsed().as_secs_f64();
    let lines = lines_of(&accesses, line);
    KernelProbe {
        lines,
        ns_per_line: wall * 1e9 / lines.max(1) as f64,
        hit_rate: dram.stats().row_hit_rate(),
    }
}
