//! The FPGA CAD tool flow (the *Instruction Implementation* phase, Fig. 2).
//!
//! Runs the real scaled-down implementation pipeline — syntax check,
//! top-level synthesis, translate, map (slice packing), place & route,
//! timing analysis, bitstream generation — and reports stage runtimes from
//! a cost model calibrated to the paper's measurements:
//!
//! | stage      | paper (Table III / §V-C)       |
//! |------------|--------------------------------|
//! | Syn check  | 4.22 s ± 0.10                  |
//! | Xst        | 10.60 s ± 0.23                 |
//! | Translate  | 8.99 s ± 1.22                  |
//! | Map        | 40 s – 456 s (complexity)      |
//! | PAR        | 56 s – 728 s (1.4–2.5 × map)   |
//! | Bitgen     | 151 s ± 2.43 (EAPR partial)    |
//! | Bitgen     | 41 s (regular full bitstream)  |
//!
//! The stage *work* is real (the bitstream at the end is a function of the
//! candidate's netlist, placement and routing); only the reported wall
//! times come from the calibrated model, because the real 2011 Xilinx
//! flow's runtimes are what the paper studies and our host machine is not
//! a 2011 Dell T3500 (see DESIGN.md §1).

use crate::bitgen::{bitgen, Bitstream};
use crate::fabric::Fabric;
use crate::place::{check_legal, place, PlaceEffort, Placement};
use crate::route::{check_connected, route, RouteEffort, RoutedDesign};
use crate::techmap::{netlist_complexity, synthesize_top};
use crate::timing::{analyze, TimingReport};
use jitise_base::hash::SigHasher;
use jitise_base::{Error, Result, SimTime};
use jitise_faults::{FaultInjector, FaultSite};
use jitise_pivpav::{CadProject, CellKind, Netlist};
use jitise_telemetry::{names, Telemetry, Value as TelValue};

/// Tool-flow options.
#[derive(Debug, Clone)]
pub struct FlowOptions {
    /// Placement effort.
    pub place_effort: PlaceEffort,
    /// Routing effort.
    pub route_effort: RouteEffort,
    /// Early-Access Partial Reconfiguration mode (the paper's default).
    /// `false` models the regular full-bitstream flow (41 s bitgen).
    pub eapr: bool,
    /// Placement seed.
    pub seed: u64,
    /// Tool-speedup factor for §VI-B extrapolations: 0.30 means "30 %
    /// faster tools", scaling every stage time by 0.70.
    pub tool_speedup: f64,
    /// Observability handle (disabled by default; zero overhead).
    pub telemetry: Telemetry,
    /// Fault injection handle, already scoped to (candidate, attempt) by
    /// the caller (disabled by default; zero overhead).
    pub faults: FaultInjector,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            place_effort: PlaceEffort::normal(),
            route_effort: RouteEffort::normal(),
            eapr: true,
            seed: 1,
            tool_speedup: 0.0,
            telemetry: Telemetry::disabled(),
            faults: FaultInjector::disabled(),
        }
    }
}

/// Simulated tool time spent by a flow execution, split the way Table II
/// splits its columns. For a *failed* execution this is the time the tools
/// burned before dying — the waste a retry pays for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowCost {
    /// Constant stages (syntax + Xst + translate + bitgen).
    pub constant: SimTime,
    /// Map stage.
    pub map: SimTime,
    /// Place-and-route stage.
    pub par: SimTime,
}

impl FlowCost {
    /// Total simulated time across all stages.
    pub fn total(&self) -> SimTime {
        self.constant + self.map + self.par
    }
}

/// A flow failure carrying the simulated tool time wasted before it.
#[derive(Debug, Clone)]
pub struct FlowError {
    /// The underlying error.
    pub error: Error,
    /// Tool time spent up to and including the failing stage.
    pub spent: FlowCost,
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (after {} of tool time)",
            self.error,
            self.spent.total()
        )
    }
}

impl From<FlowError> for Error {
    fn from(e: FlowError) -> Error {
        e.error
    }
}

impl FlowOptions {
    /// Bulk-experiment options: reduced placement effort but full routing
    /// negotiation (routing exits after one iteration when legal, so the
    /// extra iterations only cost time on congested designs — exactly the
    /// ones that need them).
    pub fn fast() -> Self {
        FlowOptions {
            place_effort: PlaceEffort::fast(),
            route_effort: RouteEffort::normal(),
            ..Default::default()
        }
    }
}

/// Report of one tool-flow execution.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Syntax-check time.
    pub syntax: SimTime,
    /// Top-level synthesis time.
    pub xst: SimTime,
    /// Translate time.
    pub translate: SimTime,
    /// Mapping time.
    pub map: SimTime,
    /// Place-and-route time.
    pub par: SimTime,
    /// Bitstream-generation time.
    pub bitgen: SimTime,
    /// Slices after packing.
    pub slices: u32,
    /// Routed wirelength.
    pub wirelength: u64,
    /// Timing of the implemented CI.
    pub timing: TimingReport,
    /// The bitstream.
    pub bitstream: Bitstream,
    /// Flat-netlist complexity driving the map/PAR model.
    pub complexity: f64,
}

impl FlowReport {
    /// Total tool-flow time (sum of all stages).
    pub fn total(&self) -> SimTime {
        self.syntax + self.xst + self.translate + self.map + self.par + self.bitgen
    }

    /// The constant-overhead share (everything except map and PAR),
    /// Table II's `const` column contribution of this candidate.
    pub fn constant_share(&self) -> SimTime {
        self.syntax + self.xst + self.translate + self.bitgen
    }
}

// ---- calibrated constants (seconds) ----
const SYNTAX_S: f64 = 4.22;
const SYNTAX_JITTER: f64 = 0.10;
const XST_S: f64 = 10.60;
const XST_JITTER: f64 = 0.23;
const TRANSLATE_S: f64 = 8.99;
const TRANSLATE_JITTER: f64 = 1.22;
const BITGEN_EAPR_S: f64 = 151.0;
const BITGEN_JITTER: f64 = 2.43;
const BITGEN_FULL_S: f64 = 41.0;
const MAP_MIN_S: f64 = 40.0;
const MAP_MAX_S: f64 = 456.0;
const PAR_RATIO_MIN: f64 = 1.4;
const PAR_RATIO_MAX: f64 = 2.5;
/// Complexity at which map time saturates (a float-divider-heavy
/// candidate).
const COMPLEXITY_SATURATION: f64 = 2_500.0;

/// Deterministic jitter in `[-1, 1]` derived from a name and a salt.
fn jitter(name: &str, salt: u64) -> f64 {
    let mut h = SigHasher::new();
    h.write_str(name);
    h.write_u64(salt);
    (h.finish() % 2_001) as f64 / 1_000.0 - 1.0
}

/// The syntax-check stage: a real structural sanity parse of the VHDL text.
fn syntax_check(project: &CadProject) -> Result<()> {
    let text = &project.vhdl_text;
    let entities = text.matches("entity ").count();
    let ends = text.matches("end entity").count() + text.matches("end architecture").count();
    if entities == 0 || ends < 2 {
        return Err(Error::Cad(
            "syntax check: malformed entity structure".into(),
        ));
    }
    if text.matches("port map").count() != project.vhdl.instances.len() {
        return Err(Error::Cad(
            "syntax check: instance/port-map count mismatch".into(),
        ));
    }
    Ok(())
}

/// The map stage: packs LUT/FF/carry cells into V4 slices (2 LUTs + 2 FFs
/// per slice); returns the slice count.
fn map_pack(flat: &Netlist) -> u32 {
    let luts = flat.lut_count() as u32;
    let carries = flat
        .cells
        .iter()
        .filter(|c| c.kind == CellKind::Carry)
        .count() as u32;
    let ffs = flat.ff_count() as u32;
    // LUT+carry share slice LUT sites; FFs pack beside them.
    let lut_sites = luts + carries;
    lut_sites.div_ceil(2).max(ffs.div_ceil(2))
}

/// Records one injector firing at `site` (counter + journal event) and
/// returns the error the failing tool stage reports.
fn injected_failure(
    tel: &Telemetry,
    faults: &FaultInjector,
    site: FaultSite,
    project: &str,
) -> Option<Error> {
    let kind = faults.decide(site)?;
    tel.add(names::FAULTS_INJECTED, 1);
    tel.event(
        "fault.injected",
        &[
            ("site", TelValue::Str(site.name().to_string())),
            ("kind", TelValue::Str(kind.name().to_string())),
        ],
    );
    Some(Error::Cad(format!(
        "injected {} fault at {} while implementing {project}",
        kind.name(),
        site.name()
    )))
}

/// Runs the complete Instruction Implementation flow on a project.
///
/// Convenience wrapper over [`run_flow_accounted`] that discards the
/// wasted-time accounting on failure.
pub fn run_flow(fabric: &Fabric, project: &CadProject, opts: &FlowOptions) -> Result<FlowReport> {
    run_flow_accounted(fabric, project, opts).map_err(|e| e.error)
}

/// Runs the flow, reporting how much simulated tool time a failure wasted.
///
/// A real CAD tool that crashes in PAR has still burned the synthesis,
/// map, and (partial) PAR runtime — the retry logic in the pipeline
/// charges exactly that waste to the candidate, so Table II-style
/// accounting stays exact even under injected faults.
pub fn run_flow_accounted(
    fabric: &Fabric,
    project: &CadProject,
    opts: &FlowOptions,
) -> std::result::Result<FlowReport, FlowError> {
    let scale = (1.0 - opts.tool_speedup).max(0.0);
    let stage = |base: f64, jit: f64, salt: u64| -> SimTime {
        SimTime::from_secs_f64((base + jit * jitter(&project.name, salt)) * scale)
    };
    let tel = &opts.telemetry;
    let mut spent = FlowCost::default();
    let fail = |error: Error, spent: FlowCost| FlowError { error, spent };

    // 1. Syntax check.
    let syntax = {
        let mut span = tel.span("cad.syntax");
        let t = stage(SYNTAX_S, SYNTAX_JITTER, 1);
        span.set_sim_time(t);
        if let Err(e) = syntax_check(project) {
            spent.constant += t;
            return Err(fail(e, spent));
        }
        t
    };
    spent.constant += syntax;

    // 2. Xst: top-level synthesis (real flattening).
    let mut xst_span = tel.span("cad.xst");
    let xst = stage(XST_S, XST_JITTER, 2);
    xst_span.set_sim_time(xst);
    let flat = match synthesize_top(project) {
        Ok(flat) => flat,
        Err(e) => {
            drop(xst_span);
            spent.constant += xst;
            return Err(fail(e, spent));
        }
    };
    drop(xst_span);
    spent.constant += xst;
    if let Some(e) = injected_failure(tel, &opts.faults, FaultSite::CadSynthesis, &project.name) {
        return Err(fail(e, spent));
    }

    // 3. Translate: consolidate netlists + constraints (validation pass).
    let translate = {
        let mut span = tel.span("cad.translate");
        let t = stage(TRANSLATE_S, TRANSLATE_JITTER, 3);
        span.set_sim_time(t);
        if let Err(e) = flat.validate().map_err(Error::Cad) {
            spent.constant += t;
            return Err(fail(e, spent));
        }
        t
    };
    spent.constant += translate;

    // 4. Map: slice packing; time scales with candidate complexity.
    let mut map_span = tel.span("cad.map");
    let slices = map_pack(&flat);
    // Use the metrics-level (uncapped) LUT counts for the runtime model so
    // a float divider costs like a float divider even though its cached
    // netlist is size-capped.
    let metric_complexity =
        project.vhdl.total_luts() as f64 + 30.0 * project.vhdl.total_dsps() as f64;
    let complexity = metric_complexity.max(netlist_complexity(&flat));
    let norm = (complexity / COMPLEXITY_SATURATION).min(1.0);
    let map_s = MAP_MIN_S + (MAP_MAX_S - MAP_MIN_S) * norm;
    let map_t = SimTime::from_secs_f64((map_s * (1.0 + 0.02 * jitter(&project.name, 4))) * scale);
    map_span.set_sim_time(map_t);
    map_span.field("slices", TelValue::U64(slices as u64));
    tel.observe("cad.complexity", complexity as u64);
    spent.map += map_t;
    if let Some(e) = injected_failure(tel, &opts.faults, FaultSite::CadMap, &project.name) {
        drop(map_span);
        return Err(fail(e, spent));
    }
    drop(map_span);

    // 5. PAR: real placement + routing; time = map × complexity ratio.
    // A failure anywhere inside PAR (placement, legality, routing,
    // connectivity) has still paid the full PAR runtime: the tools die at
    // the end of the stage, not before starting it. The `cad.place` and
    // `cad.route` children carry host time only; SimTime stays on
    // `cad.par`.
    let par_ratio = PAR_RATIO_MIN + (PAR_RATIO_MAX - PAR_RATIO_MIN) * norm;
    let par_t = SimTime::from_secs_f64(
        (map_s * par_ratio * (1.0 + 0.02 * jitter(&project.name, 5))) * scale,
    );
    let mut par_span = tel.span("cad.par");
    par_span.set_sim_time(par_t);
    spent.par += par_t;
    let par_stage = || -> Result<(Placement, RoutedDesign)> {
        let placement: Placement = {
            let _place_span = par_span.child("cad.place");
            let placement = place(fabric, &flat, opts.place_effort, opts.seed)?;
            check_legal(fabric, &flat, &placement)?;
            placement
        };
        if let Some(e) = injected_failure(tel, &opts.faults, FaultSite::CadPlace, &project.name) {
            return Err(e);
        }
        let _route_span = par_span.child("cad.route");
        let routed: RoutedDesign = route(fabric, &flat, &placement, opts.route_effort)?;
        tel.add(names::PLACER_MOVES, placement.moves);
        tel.add(names::PLACER_ACCEPTS, placement.accepted);
        tel.add(names::ROUTER_ITERATIONS, routed.iterations as u64);
        // PathFinder re-routes every multi-terminal net on each negotiation
        // iteration after the first: those re-routes are the rip-ups.
        let routable = routed.nets.iter().filter(|n| !n.edges.is_empty()).count() as u64;
        tel.add(
            names::ROUTER_RIPUPS,
            routed.iterations.saturating_sub(1) as u64 * routable,
        );
        if routed.overflow > 0 {
            return Err(Error::Cad(format!(
                "unroutable: {} channels over capacity",
                routed.overflow
            )));
        }
        check_connected(fabric, &flat, &placement, &routed)?;
        if let Some(e) = injected_failure(tel, &opts.faults, FaultSite::CadRoute, &project.name) {
            return Err(e);
        }
        Ok((placement, routed))
    };
    let (placement, routed) = match par_stage() {
        Ok(v) => v,
        Err(e) => {
            drop(par_span);
            return Err(fail(e, spent));
        }
    };
    par_span.field("wirelength", TelValue::U64(routed.wirelength));
    drop(par_span);

    // 6. Timing + bitgen.
    let mut bitgen_span = tel.span("cad.bitgen");
    let timing = analyze(fabric, &flat, &placement, &routed);
    if let Some(e) = injected_failure(tel, &opts.faults, FaultSite::CadTiming, &project.name) {
        drop(bitgen_span);
        return Err(fail(e, spent));
    }
    let bitstream = bitgen(fabric, &flat, &placement, &routed, opts.eapr);
    let bitgen_t = if opts.eapr {
        stage(BITGEN_EAPR_S, BITGEN_JITTER, 6)
    } else {
        stage(BITGEN_FULL_S, BITGEN_JITTER, 6)
    };
    bitgen_span.set_sim_time(bitgen_t);
    bitgen_span.field("bytes", TelValue::U64(bitstream.len() as u64));
    bitgen_span.field("eapr", TelValue::Bool(opts.eapr));
    drop(bitgen_span);

    Ok(FlowReport {
        syntax,
        xst,
        translate,
        map: map_t,
        par: par_t,
        bitgen: bitgen_t,
        slices,
        wirelength: routed.wirelength,
        timing,
        bitstream,
        complexity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitise_ir::{BlockId, Dfg, FuncId, Function, FunctionBuilder, Operand as Op, Type};
    use jitise_ise::ForbiddenPolicy;
    use jitise_pivpav::{create_project, CircuitDb, NetlistCache};
    use jitise_vm::BlockKey;

    fn project_for(build: impl FnOnce(&mut FunctionBuilder)) -> CadProject {
        let mut b = FunctionBuilder::new("f", vec![Type::I32, Type::I32], Type::I32);
        build(&mut b);
        let f: Function = b.finish();
        let dfg = Dfg::build(&f, BlockId(0));
        let cand = jitise_ise::maxmiso(
            &f,
            &dfg,
            BlockKey::new(FuncId(0), BlockId(0)),
            &ForbiddenPolicy::default(),
            2,
        )
        .candidates
        .remove(0);
        let db = CircuitDb::build();
        let cache = NetlistCache::new();
        create_project(&db, &cache, &f, &dfg, &cand).unwrap().0
    }

    fn small_project() -> CadProject {
        project_for(|b| {
            let x = b.add(Op::Arg(0), Op::Arg(1));
            let y = b.xor(x, Op::ci32(0x5a));
            let z = b.add(y, x);
            b.ret(z);
        })
    }

    fn complex_project() -> CadProject {
        project_for(|b| {
            let x = b.mul(Op::Arg(0), Op::Arg(1));
            let y = b.sdiv(x, Op::Arg(0));
            let z = b.mul(y, y);
            let w = b.sdiv(z, Op::Arg(1));
            b.ret(w);
        })
    }

    #[test]
    fn flow_produces_calibrated_times() {
        let fabric = Fabric::pr_region();
        let r = run_flow(&fabric, &small_project(), &FlowOptions::fast()).unwrap();
        let s = |t: SimTime| t.as_secs_f64();
        assert!((4.0..4.45).contains(&s(r.syntax)), "syntax {}", s(r.syntax));
        assert!((10.2..11.0).contains(&s(r.xst)));
        assert!((7.5..10.5).contains(&s(r.translate)));
        assert!((MAP_MIN_S * 0.9..=MAP_MAX_S * 1.1).contains(&s(r.map)));
        assert!(s(r.par) >= s(r.map) * 1.3, "PAR must exceed map");
        assert!((147.0..155.0).contains(&s(r.bitgen)));
        assert!(r.bitstream.verify());
        assert!(r.slices > 0);
        assert_eq!(
            r.total(),
            r.syntax + r.xst + r.translate + r.map + r.par + r.bitgen
        );
    }

    #[test]
    fn complex_candidates_take_longer() {
        let fabric = Fabric::pr_region();
        let small = run_flow(&fabric, &small_project(), &FlowOptions::fast()).unwrap();
        let complex = run_flow(&fabric, &complex_project(), &FlowOptions::fast()).unwrap();
        assert!(complex.complexity > small.complexity);
        assert!(complex.map > small.map);
        assert!(complex.par > small.par);
        // PAR/map ratio grows with complexity (paper: 1.4x -> 2.5x).
        let ratio_small = small.par.as_secs_f64() / small.map.as_secs_f64();
        let ratio_complex = complex.par.as_secs_f64() / complex.map.as_secs_f64();
        assert!(ratio_complex >= ratio_small);
        // Constant stages unaffected by complexity (same means).
        assert!((small.bitgen.as_secs_f64() - complex.bitgen.as_secs_f64()).abs() < 5.0);
    }

    #[test]
    fn eapr_vs_full_bitgen() {
        let fabric = Fabric::pr_region();
        let p = small_project();
        let eapr = run_flow(&fabric, &p, &FlowOptions::fast()).unwrap();
        let full = run_flow(
            &fabric,
            &p,
            &FlowOptions {
                eapr: false,
                ..FlowOptions::fast()
            },
        )
        .unwrap();
        // Paper: EAPR bitgen 151 s vs 41 s for the regular full flow.
        assert!(eapr.bitgen.as_secs_f64() > 3.0 * full.bitgen.as_secs_f64());
        assert!(!full.bitstream.partial);
        assert!(full.bitstream.len() > eapr.bitstream.len());
    }

    #[test]
    fn tool_speedup_scales_everything() {
        let fabric = Fabric::pr_region();
        let p = small_project();
        let base = run_flow(&fabric, &p, &FlowOptions::fast()).unwrap();
        let faster = run_flow(
            &fabric,
            &p,
            &FlowOptions {
                tool_speedup: 0.30,
                ..FlowOptions::fast()
            },
        )
        .unwrap();
        let expect = base.total().as_secs_f64() * 0.70;
        let got = faster.total().as_secs_f64();
        assert!(
            (got - expect).abs() / expect < 0.01,
            "expected ~{expect}, got {got}"
        );
    }

    #[test]
    fn zero_rate_injector_is_transparent() {
        use jitise_faults::{FaultInjector, FaultPlan};
        let fabric = Fabric::pr_region();
        let p = small_project();
        let plain = run_flow(&fabric, &p, &FlowOptions::fast()).unwrap();
        let zeroed = run_flow(
            &fabric,
            &p,
            &FlowOptions {
                faults: FaultInjector::from_plan(FaultPlan::uniform(0.0, 99)).scope(1, 1),
                ..FlowOptions::fast()
            },
        )
        .unwrap();
        assert_eq!(plain.bitstream, zeroed.bitstream);
        assert_eq!(plain.total(), zeroed.total());
    }

    #[test]
    fn injected_fault_charges_wasted_tool_time() {
        use jitise_faults::{FaultInjector, FaultPlan, FaultSite};
        let fabric = Fabric::pr_region();
        let p = small_project();
        let clean = run_flow(&fabric, &p, &FlowOptions::fast()).unwrap();
        // A certain map fault: flow dies after syntax+xst+translate+map.
        let plan = FaultPlan::none(3).with_rate(FaultSite::CadMap, 1.0);
        let err = run_flow_accounted(
            &fabric,
            &p,
            &FlowOptions {
                faults: FaultInjector::from_plan(plan).scope(7, 1),
                ..FlowOptions::fast()
            },
        )
        .unwrap_err();
        assert!(err.error.to_string().contains("injected"));
        assert_eq!(err.spent.map, clean.map, "map ran before dying");
        assert_eq!(
            err.spent.constant,
            clean.syntax + clean.xst + clean.translate,
            "bitgen never ran"
        );
        assert_eq!(err.spent.par, SimTime::ZERO, "PAR never started");
    }

    #[test]
    fn place_and_route_spans_are_host_only_children_of_par() {
        let fabric = Fabric::pr_region();
        let opts = FlowOptions {
            telemetry: Telemetry::enabled(),
            ..FlowOptions::fast()
        };
        run_flow(&fabric, &small_project(), &opts).unwrap();
        let snap = opts.telemetry.snapshot();
        let par: Vec<_> = snap.spans.iter().filter(|s| s.name == "cad.par").collect();
        assert_eq!(par.len(), 1);
        assert!(par[0].sim_ns.is_some(), "PAR carries the SimTime");
        for name in ["cad.place", "cad.route"] {
            let s = snap
                .spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{name} span recorded"));
            assert_eq!(s.parent, Some(par[0].id), "{name} nests under cad.par");
            assert_eq!(s.sim_ns, None, "{name} carries no SimTime");
        }
    }

    #[test]
    fn deterministic_end_to_end() {
        let fabric = Fabric::pr_region();
        let p = small_project();
        let a = run_flow(&fabric, &p, &FlowOptions::fast()).unwrap();
        let b = run_flow(&fabric, &p, &FlowOptions::fast()).unwrap();
        assert_eq!(a.bitstream, b.bitstream);
        assert_eq!(a.total(), b.total());
        assert_eq!(a.wirelength, b.wirelength);
    }
}
