#!/usr/bin/env python3
"""tlbsim-lint: repo-specific static checks clang-tidy cannot express.

Rules
-----
bare-assert
    No `assert(...)` or `#include <cassert>` in src/. Assertions must use
    TLBSIM_ASSERT / TLBSIM_DCHECK from src/util/check.hpp, which carry a
    message, stay active in Debug, and are compiled out (DCHECK) or kept
    (ASSERT) per-macro in Release.

raw-unit-alias
    No fresh integer aliases for time or byte quantities outside
    src/util/units.hpp: `using FooTime = int64_t`, `typedef int64_t
    NsDelay`, and friends reintroduce exactly the weak typing the strong
    SimTime / ByteCount wrappers removed (any int is silently accepted, in
    any unit). Declare the quantity as SimTime / ByteCount instead; if a
    raw integer is genuinely wanted (sequence numbers, ids), name it so it
    does not look like a time/byte quantity. This rule replaced the
    heuristic raw-unit-literal rule when units became compile-checked:
    a literal can no longer reach a SimTime without spelling its unit
    (10_us, microseconds(5), SimTime::fromNs at parse boundaries).

negative-delay
    Every `schedule(...)` / `post(...)` / `postAt(...)` / `every(...)`
    call site is audited: a delay expression that syntactically starts
    with a negation is rejected (time never flows backwards; the runtime
    TLBSIM_DCHECK in Scheduler::schedule is the dynamic half of this
    rule).

std-function-hot-path
    No `std::function` in src/sim, src/net, or src/transport: those
    directories hold the per-event and per-packet paths, where
    std::function costs a potential heap allocation per capture and an
    opaque double indirection per call. Use util::InlineFunction (or
    sim::EventFn for event callbacks), which keeps small captures inline
    and is what the zero-allocation guarantee of the event core is built
    on. Cold-path uses (setup-time factories, topology iteration) carry
    an explicit allow() stating why they are not hot.

installobs-wiring
    Every class in src/ declaring an observability hook, `installObs(...)`,
    `installTrace(...)` (trace wiring) or `addCountersTo(...)` (its counts,
    read once at run end), must have that hook called by the experiment
    harness (src/harness/) or the CLI (tools/), in a file that names the
    class: a hook nobody calls silently leaves metrics or trace tracks
    empty.

bench-direct-experiment
    Bench binaries must drive simulations through the sweep engine
    (runner::runSweep), not by constructing harness::Experiment or
    calling runExperiment()/summarizeExperiment() directly. The runner
    derives seeds, gives each run its own sinks, and aggregates
    deterministically; hand-rolled loops silently lose all three.
    Benches not yet ported carry an explicit allow() marking them as
    pending migration.

fault-mutation
    Link fault state may only be mutated by the fault subsystem: calls to
    faultDown()/faultUp()/faultSetRateFactor()/faultSetDelayFactor()/
    faultSetDropProb() outside src/fault/ (and the Link definition itself)
    bypass the FaultInjector, so the mutation is invisible to the
    FaultMonitor's recovery metrics, the fault trace track, and the
    declarative (seed-deterministic) FaultPlan. Route faults through an
    ExperimentConfig's FaultPlan instead.

flowprobe-mutation
    FlowProbe state may only be mutated at the instrumented decision
    sites: declareFlow()/finishFlow() belong to the harness's flow
    lifecycle, onUplinkForward() to the leaf switch, onRetransmit()/
    onOutOfOrder() to the transport, and onDecision() to the
    load-balancer decision points (TLB core, lb/ selectors, fault
    monitor). A mutation anywhere else would fabricate telemetry the
    tlbsim_flows analyzer then reports as a real decision.

flowid-map
    No std map or set (ordered or unordered) keyed by FlowId anywhere in
    src/: util::FlowIndex (src/util/flow_index.hpp) is the one table that
    maps a flow id to a value. Per-flow state on the packet decision path
    lives in lb::FlowStateTable (src/lb/flow_state_table.hpp), which is
    bounded (maxFlows + LRU eviction), idle-purged in O(purged), and
    allocation-free in steady state, and finds its slots through a
    FlowIndex; a host's flow demux, the endpoint pool, the flow probe and
    the fault monitor use one directly. A FlowId-keyed node container
    reintroduces a heap allocation per new flow and a pointer chase per
    packet. In src/lb and src/core, the decision path, no std map or set
    is allowed whatever its key: per-port state is a vector indexed by
    port number (lb::SmoothedWaits, CONGA's DRE), because ports are small
    dense ints. Elsewhere, containers keyed by other types are fine.
    Genuinely cold uses carry an explicit allow() stating why a FlowIndex
    or a vector does not fit there.

app-flowspec-factory
    The app layer mints every RPC flow through app::FlowFactory
    (src/app/flow_factory.*), the single place that assigns flow ids from
    the monotone post-static-workload range. Direct transport::FlowSpec
    construction anywhere else in src/app can reuse an id already owned
    by a static workload flow or a concurrent query, silently corrupting
    the ledger, the probes, and the conservation audit. Copies of a
    factory-built spec (`const transport::FlowSpec spec =
    FlowFactory::rpcFlow(...)`) and reference/pointer parameters are
    fine; default or brace construction is not.

topology-shape
    Nothing in src/ names LeafSpineTopology or FatTreeTopology except the
    builders themselves (src/net/), the fault subsystem (src/fault/, whose
    `leafL-spineS` grammar and one-uplink-per-flow monitor are leaf-spine
    only) and src/harness/experiment.cpp, which picks the builder. Every
    other consumer takes net::Fabric&, which answers by host, access
    switch, decision switch and link label, so it runs on either topology
    and a new one needs no port. Indexing a topology by leaf and spine
    outside those places is how a second, unaudited harness grew before.

packet-storage
    No net::Packet held by value in a container (`std::vector<Packet>`,
    `std::deque<net::Packet>`, `std::optional<Packet>`, ...) or as a
    class or struct data member anywhere in src/, except the packet store
    itself (src/net/packet_store.*). A packet waiting anywhere — in a
    queue, on a wire — lives in its fabric's net::PacketStore and is named
    by its 4-byte handle, so a run's packet memory follows the packets in
    flight. A per-port or per-flow copy is a second store that grows to
    its own worst case. Locals (the segment a sender fills in before
    send()) and `const Packet&` parameters are fine.

endpoint-send
    In src/transport, `host_.send(` appears only in transport::Endpoint's
    send() (src/transport/endpoint.hpp), the one send that counts the
    packet into the endpoint's packets in the network. The endpoint pool
    reuses a pair when its two counts sum to zero, so a packet sent past
    the count would let a pair be reused while that packet is still in
    the network, and its arrival would find no endpoint (an orphan).

config-is-data
    A struct or class named `Config` or `*Config` in src/ declares no
    raw-pointer data member. A config says what to simulate; what a run
    writes to (a metrics registry, a trace, a probe) is an argument of the
    run (harness::Sinks), so a config can be copied, stored and run on any
    thread without sharing a sink. Pointer locals inside a config's member
    functions are fine.

event-in-place
    No function in src/ takes a `sim::EventFn` parameter by value, except
    the periodic-timer registration `every()`, which runs once per timer.
    The scheduler builds each event's callable in the lane entry or heap
    slot it fires from (Scheduler::post and friends take it by forwarding
    reference); a wrapper taking an EventFn by value moves every closure
    that passes through it once more, the per-hop copy this rule keeps
    out. Take `template <typename F> ... F&& fn` and std::forward it.
    Genuinely cold uses carry an explicit allow() stating why.

Suppression: append `// tlbsim-lint: allow(<rule>)` to the offending line,
or place it as a comment-only line directly above (for lines that would
overflow the 80-column format limit otherwise).

Exit status: 0 when clean, 1 when any rule fired, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

SOURCE_DIRS = ["src", "tools", "bench", "examples"]
CPP_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}

ALLOW_RE = re.compile(r"tlbsim-lint:\s*allow\(([a-z-]+)\)")

BARE_ASSERT_RE = re.compile(r"(?<![_\w])assert\s*\(")
CASSERT_RE = re.compile(r'#\s*include\s*<(cassert|assert\.h)>')

# A unit-smelling name: contains a time or byte word. Matches both the
# alias name and intent-revealing fragments (NsDelay, ByteBudget, ...).
UNIT_NAME = (r"(?:[A-Za-z0-9_]*"
             r"(?:[Tt]ime|[Bb]ytes?|[Dd]uration|[Dd]elay|[Tt]imeout"
             r"|[Dd]eadline|[Nn]anos|[Mm]icros|[Mm]illis|[Ii]nterval)"
             r"[A-Za-z0-9_]*)")
INT64 = r"(?:std::)?u?int64_t|(?:unsigned\s+)?long\s+long(?:\s+int)?"
RAW_UNIT_ALIAS_RE = re.compile(
    r"\busing\s+" + UNIT_NAME + r"\s*=\s*(?:" + INT64 + r")\s*;"
    r"|\btypedef\s+(?:" + INT64 + r")\s+" + UNIT_NAME + r"\s*;")

SCHEDULE_CALL_RE = re.compile(r"\b(schedule|post|postAt|every)\s*\(")

STD_FUNCTION_RE = re.compile(r"\bstd\s*::\s*function\s*<")
# The per-event / per-packet directories where std::function is banned.
HOT_PATH_DIRS = (("src", "sim"), ("src", "net"), ("src", "transport"))

FAULT_MUTATION_RE = re.compile(
    r"\bfault(Down|Up|SetRateFactor|SetDelayFactor|SetDropProb)\s*\(")

# A TCP endpoint handing a packet to its host, and the one place allowed
# to (transport::Endpoint::send, which counts it).
ENDPOINT_SEND_RE = re.compile(r"\bhost_\s*\.\s*send\s*\(")
ENDPOINT_SEND_FILE = "src/transport/endpoint.hpp"

FLOWPROBE_MUTATION_RE = re.compile(
    r"\b(declareFlow|finishFlow|onUplinkForward|onRetransmit"
    r"|onOutOfOrder|onDecision)\s*\(")

# The instrumented decision sites: the only code allowed to feed the
# FlowProbe (plus the probe's own implementation).
FLOWPROBE_AUTHORITY_DIRS = (("src", "obs"), ("src", "lb"),
                            ("src", "harness"))
FLOWPROBE_AUTHORITY_FILES = (
    "src/core/tlb.cpp",
    "src/net/switch.cpp",
    "src/transport/tcp_sender.cpp",
    "src/transport/tcp_receiver.cpp",
    "src/fault/monitor.cpp",
)

# Direct FlowSpec construction: `FlowSpec{...}`, `FlowSpec x;`,
# `FlowSpec x{...}` or `FlowSpec x = {...}`. Deliberately does NOT match
# reference/pointer parameters or copy-init from a factory call.
APP_FLOWSPEC_RE = re.compile(
    r"\b(?:transport\s*::\s*)?FlowSpec"
    r"(?:\s*\{|\s+\w+\s*(?:;|\{|=\s*\{))")
# The one construction point the app layer is allowed.
APP_FLOWSPEC_AUTHORITY_FILES = (
    "src/app/flow_factory.hpp",
    "src/app/flow_factory.cpp",
)

# A FlowId-keyed standard map or set: a flow lookup beside util::FlowIndex.
FLOWID_MAP_RE = re.compile(
    r"\b(?:std\s*::\s*)?(?:unordered_)?(?:multi)?(?:map|set)\s*<\s*"
    r"(?:tlbsim\s*::\s*)?(?:util\s*::\s*)?FlowId\s*[,>]")

# Any standard map or set, whatever its key: banned on the decision path.
NODE_CONTAINER_RE = re.compile(
    r"\b(?:std\s*::\s*)?(?:unordered_)?(?:multi)?(?:map|set)\s*<")
DECISION_PATH_DIRS = (("src", "lb"), ("src", "core"))

TOPOLOGY_SHAPE_RE = re.compile(r"\b(LeafSpineTopology|FatTreeTopology)\b")
# The code allowed to know a topology's shape by index.
TOPOLOGY_SHAPE_DIRS = (("src", "net"), ("src", "fault"))
TOPOLOGY_SHAPE_FILES = ("src/harness/experiment.cpp",)

# A Packet held by value as a container's element (or a smart pointer's
# pointee).
PACKET_CONTAINER_RE = re.compile(
    r"\b(?:vector|deque|list|forward_list|array|optional|pair|tuple|queue"
    r"|priority_queue|stack|map|multimap|unordered_map|set|unordered_set"
    r"|unique_ptr|shared_ptr|span)\s*<[^;]*?(?<![\w:])"
    r"(?:(?:tlbsim\s*::\s*)?net\s*::\s*)?Packet\s*[,>\[]")
# A declaration `Packet name;` (or `{...}`, `= ...`, `[n]`), tested on one
# statement of a class or struct body.
PACKET_MEMBER_RE = re.compile(
    r"^\s*(?:(?:mutable|static|inline|const|constexpr)\s+)*"
    r"(?:(?:tlbsim\s*::\s*)?net\s*::\s*)?Packet\s+\w+\s*"
    r"(?:\[[^\]]*\]\s*)?(?:=.*)?$", re.S)
# The head of a class, struct or union body (not `enum class`, not a
# template function whose parameters say `class`); group 1 is its name,
# empty for an anonymous one.
CLASS_HEAD_RE = re.compile(
    r"^\s*(?:template\s*<.*>\s*)?(?:class|struct|union)\b\s*(\w*)", re.S)
ACCESS_LABEL_RE = re.compile(r"^\s*(?:(?:public|private|protected)\s*:\s*)+")
# The one place a packet may be held by value.
PACKET_STORE_FILES = ("src/net/packet_store.hpp", "src/net/packet_store.cpp")

# A configuration type's name, and a raw-pointer data member `T* name`
# (`= ...`, `[n]`), tested on one statement of its body.
CONFIG_NAME_RE = re.compile(r"\w*Config")
POINTER_MEMBER_RE = re.compile(
    r"^\s*(?:(?:mutable|const|volatile)\s+)*"
    r"(?!(?:static|using|typedef|friend|return)\b)"
    r"[\w:]+(?:\s*<[^;]*>)?(?:\s+const)?\s*\*[\s*]*(?:const\s+)?\w+\s*"
    r"(?:\[[^\]]*\]\s*)?(?:=.*)?$", re.S)

# A sim::EventFn parameter taken by value: after `(` or `,`, or at the
# start of a continuation line of a parameter list.
EVENT_NS = r"(?:(?:tlbsim\s*::\s*)?sim\s*::\s*)?"
EVENT_BY_VALUE_RE = re.compile(
    r"[(,]\s*(?:const\s+)?" + EVENT_NS + r"EventFn\s+\w+\s*[,)=]"
    r"|^\s*(?:const\s+)?" + EVENT_NS + r"EventFn\s+\w+\s*[,)]")
# The one function allowed to take one: a periodic timer's registration.
EVERY_DECL_RE = re.compile(r"\bevery\s*\(")

DIRECT_EXPERIMENT_RE = re.compile(
    r"\b(runExperiment|summarizeExperiment)\s*\("
    r"|\bExperiment\s+\w+\s*[({]"
    r"|\bExperiment\s*\(")


class Finding:
    def __init__(self, path: pathlib.Path, line: int, rule: str, msg: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.msg = msg

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.msg}"


def iter_sources(root: pathlib.Path):
    for d in SOURCE_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in CPP_SUFFIXES:
                yield path


def allowed(line: str, rule: str, prev: str = "") -> bool:
    m = ALLOW_RE.search(line)
    if m and m.group(1) == rule:
        return True
    # A comment-only line directly above also suppresses (keeps long
    # statements inside the 80-column limit).
    prev = prev.strip()
    if prev.startswith("//"):
        m = ALLOW_RE.search(prev)
        return bool(m) and m.group(1) == rule
    return False


def strip_comments_and_strings(line: str) -> str:
    """Best-effort removal of string/char literals and // comments so the
    regex rules don't fire inside them. Block comments are handled by the
    caller keeping per-file state."""
    out = []
    i = 0
    in_str = None
    while i < len(line):
        c = line[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == in_str:
                in_str = None
            i += 1
            continue
        if c in ('"', "'"):
            in_str = c
            out.append(c)
            i += 1
            continue
        if c == "/" and i + 1 < len(line) and line[i + 1] == "/":
            break
        out.append(c)
        i += 1
    return "".join(out)


def first_argument(text: str, open_paren: int) -> str:
    """Returns the first top-level argument of the call whose '(' is at
    `open_paren` in `text` (which may span lines)."""
    depth = 0
    arg = []
    for ch in text[open_paren:]:
        if ch in "([{":
            depth += 1
            if depth == 1:
                continue
        elif ch in ")]}":
            depth -= 1
            if depth == 0:
                break
        elif ch == "," and depth == 1:
            break
        if depth >= 1:
            arg.append(ch)
    return "".join(arg).strip()


def check_file(path: pathlib.Path, rel: pathlib.Path, text: str,
               findings: list, stats: dict):
    in_src = rel.parts[0] == "src"
    in_bench = rel.parts[0] == "bench"
    is_units = rel.as_posix() == "src/util/units.hpp"
    is_check = rel.as_posix() in ("src/util/check.hpp", "src/util/check.cpp")
    # The fault subsystem and the Link definition itself are the only code
    # allowed to flip link fault state.
    is_fault_authority = (
        rel.parts[:2] == ("src", "fault")
        or rel.as_posix() in ("src/net/link.hpp", "src/net/link.cpp"))
    is_flowprobe_authority = (
        rel.parts[:2] in FLOWPROBE_AUTHORITY_DIRS
        or rel.as_posix() in FLOWPROBE_AUTHORITY_FILES)
    lines = text.splitlines()
    # packet-storage and config-is-data keep the brace scopes of the file:
    # the name of a class, struct or union body ("" if anonymous), None
    # for any other scope. `stmt` is the code since the last ; { or }.
    packet_rule = in_src and rel.as_posix() not in PACKET_STORE_FILES
    scopes: list = []
    stmt = ""

    in_block_comment = False
    for lineno, raw in enumerate(lines, start=1):
        prev_raw = lines[lineno - 2] if lineno >= 2 else ""
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block_comment = False
        # Strip block comments that open (and maybe close) on this line.
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block_comment = True
                break
            line = line[:start] + line[end + 2:]
        code = strip_comments_and_strings(line)

        # --- bare-assert ----------------------------------------------
        if in_src and not is_check:
            if CASSERT_RE.search(code) and \
                    not allowed(raw, "bare-assert", prev_raw):
                findings.append(Finding(
                    rel, lineno, "bare-assert",
                    "<cassert> include; use util/check.hpp "
                    "(TLBSIM_ASSERT / TLBSIM_DCHECK)"))
            m = BARE_ASSERT_RE.search(code)
            if m and "static_assert" not in code and \
                    not allowed(raw, "bare-assert", prev_raw):
                findings.append(Finding(
                    rel, lineno, "bare-assert",
                    "bare assert(); use TLBSIM_ASSERT / TLBSIM_DCHECK "
                    "with a message"))

        # --- raw-unit-alias -------------------------------------------
        if not is_units:
            m = RAW_UNIT_ALIAS_RE.search(code)
            if m and not allowed(raw, "raw-unit-alias", prev_raw):
                findings.append(Finding(
                    rel, lineno, "raw-unit-alias",
                    "integer alias for a time/byte quantity; use the "
                    "strong SimTime / ByteCount types from "
                    "src/util/units.hpp (only units.hpp defines units)"))

        # --- fault-mutation -------------------------------------------
        if not is_fault_authority:
            m = FAULT_MUTATION_RE.search(code)
            if m and not allowed(raw, "fault-mutation", prev_raw):
                findings.append(Finding(
                    rel, lineno, "fault-mutation",
                    f"direct fault{m.group(1)}() call outside src/fault/; "
                    "schedule it through a FaultPlan so the injector, "
                    "monitor, and trace stay consistent"))

        # --- endpoint-send --------------------------------------------
        if rel.parts[:2] == ("src", "transport") and \
                rel.as_posix() != ENDPOINT_SEND_FILE:
            if ENDPOINT_SEND_RE.search(code) and \
                    not allowed(raw, "endpoint-send", prev_raw):
                findings.append(Finding(
                    rel, lineno, "endpoint-send",
                    "direct host_.send() in src/transport; send through "
                    "transport::Endpoint::send() so the packet counts "
                    "toward its flow's packets in the network"))

        # --- flowprobe-mutation ---------------------------------------
        if not is_flowprobe_authority:
            m = FLOWPROBE_MUTATION_RE.search(code)
            if m and not allowed(raw, "flowprobe-mutation", prev_raw):
                findings.append(Finding(
                    rel, lineno, "flowprobe-mutation",
                    f"{m.group(1)}() call outside the instrumented "
                    "decision sites; FlowProbe telemetry must come from "
                    "the switch/transport/LB hooks it describes"))

        # --- app-flowspec-factory -------------------------------------
        if rel.parts[:2] == ("src", "app") and \
                rel.as_posix() not in APP_FLOWSPEC_AUTHORITY_FILES:
            m = APP_FLOWSPEC_RE.search(code)
            if m and not allowed(raw, "app-flowspec-factory", prev_raw):
                findings.append(Finding(
                    rel, lineno, "app-flowspec-factory",
                    "direct transport::FlowSpec construction in src/app; "
                    "mint RPC flows through app::FlowFactory "
                    "(flow_factory.*) so ids stay collision-free"))

        # --- flowid-map -----------------------------------------------
        if in_src and not allowed(raw, "flowid-map", prev_raw):
            if FLOWID_MAP_RE.search(code):
                findings.append(Finding(
                    rel, lineno, "flowid-map",
                    "FlowId-keyed std map or set in src/; look flows up "
                    "through util::FlowIndex (per-flow switch state: "
                    "lb::FlowStateTable), or allow() with a cold-path "
                    "justification"))
            elif rel.parts[:2] in DECISION_PATH_DIRS and \
                    NODE_CONTAINER_RE.search(code):
                findings.append(Finding(
                    rel, lineno, "flowid-map",
                    "std map or set on the decision path (src/lb, "
                    "src/core); keep per-port state in a vector indexed "
                    "by port number, or allow() with a cold-path "
                    "justification"))

        # --- event-in-place -------------------------------------------
        if in_src:
            m = EVENT_BY_VALUE_RE.search(code)
            if m and not EVERY_DECL_RE.search(code[:m.start()]) and \
                    not allowed(raw, "event-in-place", prev_raw):
                findings.append(Finding(
                    rel, lineno, "event-in-place",
                    "sim::EventFn parameter taken by value; take the "
                    "callable as a forwarding reference (template "
                    "<typename F> ... F&& fn) so the scheduler builds it "
                    "in its slot, or allow() with a cold-path "
                    "justification"))

        # --- std-function-hot-path ------------------------------------
        if rel.parts[:2] in HOT_PATH_DIRS:
            m = STD_FUNCTION_RE.search(code)
            if m and not allowed(raw, "std-function-hot-path", prev_raw):
                findings.append(Finding(
                    rel, lineno, "std-function-hot-path",
                    "std::function on a hot-path directory; use "
                    "util::InlineFunction / sim::EventFn (inline "
                    "captures, no per-call heap), or allow() with a "
                    "cold-path justification"))

        # --- topology-shape -------------------------------------------
        if in_src and rel.parts[:2] not in TOPOLOGY_SHAPE_DIRS and \
                rel.as_posix() not in TOPOLOGY_SHAPE_FILES:
            m = TOPOLOGY_SHAPE_RE.search(code)
            if m and not allowed(raw, "topology-shape", prev_raw):
                findings.append(Finding(
                    rel, lineno, "topology-shape",
                    f"{m.group(1)} outside src/net, src/fault and "
                    "harness/experiment.cpp; take net::Fabric& so the "
                    "code runs on every topology"))

        # --- packet-storage, config-is-data ---------------------------
        if in_src and not code.lstrip().startswith("#"):
            held = packet_rule and PACKET_CONTAINER_RE.search(code) is not None
            pointer = False
            for ch in code:
                if ch not in ";{}":
                    stmt += ch
                    continue
                decl = ACCESS_LABEL_RE.sub("", stmt)
                if ch in ";{" and scopes and scopes[-1] is not None:
                    held = held or (packet_rule and
                                    PACKET_MEMBER_RE.match(decl) is not None)
                    pointer = pointer or (
                        CONFIG_NAME_RE.fullmatch(scopes[-1]) is not None and
                        POINTER_MEMBER_RE.match(decl) is not None)
                if ch == "{":
                    head = CLASS_HEAD_RE.match(decl)
                    scopes.append(head.group(1) if head else None)
                elif ch == "}" and scopes:
                    scopes.pop()
                stmt = ""
            stmt += " "
            if held and not allowed(raw, "packet-storage", prev_raw):
                findings.append(Finding(
                    rel, lineno, "packet-storage",
                    "net::Packet held by value in a container or a data "
                    "member; a waiting packet lives in the fabric's "
                    "net::PacketStore, named by its handle"))
            if pointer and not allowed(raw, "config-is-data", prev_raw):
                findings.append(Finding(
                    rel, lineno, "config-is-data",
                    "raw-pointer data member in a config; what a run "
                    "writes to is an argument of the run "
                    "(harness::Sinks), not configuration"))

        # --- bench-direct-experiment ----------------------------------
        if in_bench:
            m = DIRECT_EXPERIMENT_RE.search(code)
            if m and not allowed(raw, "bench-direct-experiment", prev_raw):
                findings.append(Finding(
                    rel, lineno, "bench-direct-experiment",
                    "bench drives Experiment directly; use "
                    "runner::runSweep (per-run sinks, derived seeds, "
                    "deterministic aggregation)"))

        # --- negative-delay -------------------------------------------
        for m in SCHEDULE_CALL_RE.finditer(code):
            if allowed(raw, "negative-delay", prev_raw):
                continue
            # Look at the call with up to 3 lines of continuation so
            # multi-line argument lists resolve.
            window = "\n".join(lines[lineno - 1:lineno + 3])
            paren = window.find("(", window.find(m.group(1)))
            if paren < 0:
                continue
            arg = first_argument(window, paren)
            if not arg:
                continue
            stats["schedule_sites"] += 1
            if arg.startswith("-") and not re.match(r"-\s*>\s*", arg):
                findings.append(Finding(
                    rel, lineno, "negative-delay",
                    f"{m.group(1)}() with a syntactically negative delay "
                    f"'{arg}'"))


OBS_HOOKS = ("installObs", "installTrace", "addCountersTo")
WIRING_DIRS = ("src/harness/", "tools/")


def hook_sources(root: pathlib.Path) -> dict:
    """The files the installobs-wiring rule reads: src/ headers, where
    hooks are declared, and the harness and CLI sources that call them."""
    paths = list((root / "src").rglob("*.hpp"))
    for d in WIRING_DIRS:
        if (root / d).is_dir():
            paths += [p for p in (root / d).rglob("*")
                      if p.suffix in CPP_SUFFIXES]
    return {p.relative_to(root).as_posix(): p.read_text(errors="replace")
            for p in sorted(set(paths))}


def check_hook_wiring(sources: dict, findings: list, stats: dict):
    class_re = re.compile(r"^\s*class\s+(\w+)")
    declare_re = re.compile(r"\bvoid\s+(" + "|".join(OBS_HOOKS) +
                            r")\s*\(")
    declaring = {}  # (class name, hook) -> (rel path, line)
    for rel, text in sorted(sources.items()):
        if not (rel.startswith("src/") and rel.endswith(".hpp")):
            continue
        current = None
        for lineno, line in enumerate(text.splitlines(), start=1):
            m = class_re.match(line)
            if m:
                current = m.group(1)
            d = declare_re.search(line)
            if d and current:
                declaring.setdefault((current, d.group(1)), (rel, lineno))

    wiring = [text for rel, text in sources.items()
              if rel.startswith(WIRING_DIRS)]
    stats["hook_classes"] = len({name for name, _ in declaring})
    for (name, hook), (rel, lineno) in sorted(declaring.items()):
        call = re.compile(rf"[.>]\s*{hook}\s*\(")
        named = re.compile(rf"\b{re.escape(name)}\b")
        if not any(call.search(t) and named.search(t) for t in wiring):
            findings.append(Finding(
                pathlib.PurePosixPath(rel), lineno, "installobs-wiring",
                f"{name}::{hook}() is never called by the harness "
                "(src/harness/) or the CLI (tools/)"))


# Each entry: (rule-or-None, relative path, snippet). rule=None means the
# snippet must lint clean; otherwise exactly that rule must fire.
SELF_TEST_CASES = [
    # raw-unit-alias: fresh integer aliases for unit quantities.
    ("raw-unit-alias", "src/foo/x.hpp", "using SimTime = std::int64_t;\n"),
    ("raw-unit-alias", "src/foo/x.hpp", "using FlowletGapTime = int64_t;\n"),
    ("raw-unit-alias", "src/foo/x.hpp", "using QueueBytes = uint64_t;\n"),
    ("raw-unit-alias", "src/foo/x.hpp",
     "typedef std::int64_t RetxTimeout;\n"),
    ("raw-unit-alias", "tools/x.cpp", "using AckDelay = long long;\n"),
    (None, "src/util/units.hpp", "using SimTime = std::int64_t;\n"),
    (None, "src/foo/x.hpp", "using FlowId = std::int64_t;\n"),
    (None, "src/foo/x.hpp", "using SeqNum = std::uint64_t;\n"),
    (None, "src/foo/x.hpp", "using Clock = sim::Scheduler;\n"),
    (None, "src/foo/x.hpp",
     "// tlbsim-lint: allow(raw-unit-alias)\n"
     "using LegacyTime = std::int64_t;\n"),
    (None, "src/foo/x.hpp", "SimTime gap = 10_us;\n"),
    # bare-assert still guards src/.
    ("bare-assert", "src/foo/x.cpp", "assert(x > 0);\n"),
    (None, "src/foo/x.cpp", "static_assert(sizeof(x) == 8);\n"),
    # negative-delay audits schedule sites.
    ("negative-delay", "src/foo/x.cpp", "sim.schedule(-delay, fn);\n"),
    (None, "src/foo/x.cpp", "sim.schedule(delay, fn);\n"),
    ("negative-delay", "src/foo/x.cpp", "sim.post(-txTime, fn);\n"),
    ("negative-delay", "src/foo/x.cpp", "sim.postAt(-when, fn);\n"),
    (None, "src/foo/x.cpp", "sim.post(txTime, fn);\n"),
    # event-in-place: a callable reaches its event slot without a by-value
    # EventFn hop on the way.
    ("event-in-place", "src/net/x.hpp",
     "void later(SimTime delay, sim::EventFn fn);\n"),
    ("event-in-place", "src/app/x.cpp",
     "void Service::defer(EventFn fn) {\n"),
    ("event-in-place", "src/sim/x.hpp",
     "void postAt(SimTime when,\n            const EventFn fn) {\n"),
    ("event-in-place", "src/sim/x.hpp",
     "void schedule(SimTime when, EventFn fn = nullptr);\n"),
    (None, "src/sim/x.hpp",
     "template <typename F>\nvoid post(SimTime delay, F&& fn) {\n"
     "  scheduler_.post(delay, std::forward<F>(fn));\n}\n"),
    (None, "src/sim/scheduler.hpp",
     "void every(SimTime period, EventFn fn, SimTime start = {},\n"),
    (None, "src/sim/scheduler.cpp",
     "void Scheduler::every(SimTime period, EventFn fn, SimTime start,\n"),
    (None, "src/app/x.cpp",
     "// registered once at set-up. tlbsim-lint: allow(event-in-place)\n"
     "void onIdle(EventFn fn);\n"),
    (None, "src/sim/x.hpp", "void pushLane(Lane& lane, EventFn&& fn);\n"),
    (None, "src/sim/x.cpp", "  EventFn fn;\n  EventFn next = std::move(fn);\n"),
    (None, "src/sim/x.hpp", "using EventFn = util::InlineFunction<void()>;\n"),
    (None, "tests/sim/x.cpp", "void post(SimTime delay, EventFn fn);\n"),
    # std-function-hot-path bans std::function on the event/packet paths.
    ("std-function-hot-path", "src/sim/x.hpp",
     "using Callback = std::function<void()>;\n"),
    ("std-function-hot-path", "src/net/x.hpp",
     "std::function<void(const Packet&)> hook_;\n"),
    ("std-function-hot-path", "src/transport/x.cpp",
     "void onDone(std::function<void(FlowId)> cb);\n"),
    (None, "src/lb/x.hpp", "std::function<void()> factory_;\n"),
    (None, "src/harness/x.cpp", "std::function<void()> setup;\n"),
    (None, "src/net/x.hpp",
     "// cold path. tlbsim-lint: allow(std-function-hot-path)\n"
     "std::function<void(const Packet&)> filter_;\n"),
    (None, "src/net/x.hpp", "util::InlineFunction<void()> hook_;\n"),
    (None, "src/sim/x.cpp", "// std::function is banned here\n"),
    # fault-mutation: link fault state changes only through src/fault.
    ("fault-mutation", "src/harness/x.cpp", "link.faultDown(false);\n"),
    ("fault-mutation", "src/app/x.cpp",
     "link.faultSetRateFactor(0.5);\n"),
    (None, "src/fault/injector.cpp", "up.faultSetRateFactor(ev.value);\n"),
    (None, "src/net/link.cpp", "void Link::faultSetRateFactor(double f) {\n"),
    # endpoint-send: a TCP endpoint sends only through Endpoint::send().
    ("endpoint-send", "src/transport/tcp_sender.cpp", "  host_.send(syn);\n"),
    ("endpoint-send", "src/transport/tcp_receiver.cpp",
     "host_ . send(makeControl(net::PacketType::kAck));\n"),
    (None, "src/transport/endpoint.hpp",
     "  void send(const net::Packet& pkt) {\n    ++inNetwork_;\n"
     "    host_.send(pkt);\n  }\n"),
    (None, "src/transport/tcp_sender.cpp",
     "  host_.send(pkt);  // tlbsim-lint: allow(endpoint-send)\n"),
    (None, "tests/transport/x.cpp", "host_.send(pkt);\n"),
    (None, "src/transport/tcp_sender.cpp", "  send(fin);\n"),
    (None, "src/net/x.cpp", "host_.send(pkt);\n"),
    # flowid-map: every FlowId lookup in src/ goes through FlowIndex.
    ("flowid-map", "src/lb/x.hpp",
     "std::unordered_map<FlowId, State> flows_;\n"),
    ("flowid-map", "src/core/x.hpp",
     "std::unordered_map<FlowId, FlowEntry> entries_;\n"),
    ("flowid-map", "src/lb/x.hpp",
     "std::map<FlowId, int> ports_;\n"),
    ("flowid-map", "src/core/x.cpp",
     "std::unordered_map<util::FlowId, double> ewma_;\n"),
    # ... and on the decision path, no std map or set whatever its key.
    ("flowid-map", "src/lb/conga.hpp",
     "std::unordered_map<int, double> dre_;\n"),
    ("flowid-map", "src/core/tlb.hpp",
     "std::map<int, double> portEwma_;\n"),
    ("flowid-map", "src/lb/x.cpp", "std::unordered_set<int> seen;\n"),
    (None, "src/obs/x.hpp", "std::map<std::string, Counter> counters_;\n"),
    (None, "src/net/x.hpp", "std::unordered_map<int, double> byPort_;\n"),
    (None, "src/lb/x.hpp", "#include <unordered_map>\n"),
    (None, "src/lb/x.hpp",
     "// setup-time lookup. tlbsim-lint: allow(flowid-map)\n"
     "std::map<int, int> groupOf_;\n"),
    (None, "src/lb/x.hpp", "std::vector<double> dre_;\n"),
    (None, "src/lb/x.hpp", "FlowStateTable<State> flows_;\n"),
    ("flowid-map", "src/fault/monitor.hpp",
     "std::unordered_map<FlowId, Pending> pending_;\n"),
    ("flowid-map", "src/harness/experiment.cpp",
     "std::unordered_set<FlowId> shortFlows;\n"),
    ("flowid-map", "src/net/host.hpp",
     "std::unordered_map<FlowId, PacketHandler*> handlers_;\n"),
    ("flowid-map", "src/net/x.cpp",
     "std::map<tlbsim::FlowId, int> lastPort;\n"),
    (None, "src/lb/x.hpp",
     "// debug-only snapshot. tlbsim-lint: allow(flowid-map)\n"
     "std::unordered_map<FlowId, State> snapshot_;\n"),
    # app-flowspec-factory: flows in src/app come from the FlowFactory.
    ("app-flowspec-factory", "src/app/x.cpp", "transport::FlowSpec f;\n"),
    ("app-flowspec-factory", "src/app/service.cpp",
     "auto s = transport::FlowSpec{};\n"),
    ("app-flowspec-factory", "src/app/x.cpp", "FlowSpec spec{1, 2};\n"),
    ("app-flowspec-factory", "src/app/x.cpp",
     "transport::FlowSpec raw = {7, 0, 1};\n"),
    (None, "src/app/flow_factory.cpp", "transport::FlowSpec spec;\n"),
    (None, "src/app/x.cpp",
     "const transport::FlowSpec spec = FlowFactory::rpcFlow(i, s, d, n, t);"
     "\n"),
    (None, "src/app/x.hpp",
     "void launchFlow(const transport::FlowSpec& spec);\n"),
    (None, "src/app/x.cpp",
     "// tlbsim-lint: allow(app-flowspec-factory)\n"
     "transport::FlowSpec raw;\n"),
    (None, "src/workload/x.cpp", "transport::FlowSpec f;\n"),
    # topology-shape: consumers take net::Fabric&, not a builder.
    ("topology-shape", "src/app/service.hpp",
     "Service(sim::Simulator& simr, net::LeafSpineTopology& topo);\n"),
    ("topology-shape", "src/check/invariant_audit.cpp",
     "void watchTopology(net::FatTreeTopology& topo) {\n"),
    ("topology-shape", "src/transport/endpoint_pool.hpp",
     "net::LeafSpineTopology& topo_;\n"),
    ("topology-shape", "src/harness/scheme.cpp",
     "std::optional<net::FatTreeTopology> tree;\n"),
    (None, "src/net/fat_tree.hpp",
     "class FatTreeTopology : public Fabric {\n"),
    (None, "src/fault/injector.hpp", "net::LeafSpineTopology& topo_;\n"),
    (None, "src/harness/experiment.cpp",
     "std::optional<net::LeafSpineTopology> leafSpine;\n"),
    (None, "src/app/service.hpp", "net::Fabric& topo_;\n"),
    (None, "src/app/service.cpp",
     "// built on a LeafSpineTopology or a FatTreeTopology\n"),
    (None, "tools/x.cpp", "net::LeafSpineTopology topo(simr, cfg, f);\n"),
    # packet-storage: a waiting packet lives in the store, by handle.
    ("packet-storage", "src/transport/x.hpp",
     "class Sender {\n private:\n  std::vector<Packet> unacked_;\n};\n"),
    ("packet-storage", "src/net/x.hpp",
     "struct WireSlot {\n  Packet pkt;\n  std::uint64_t epoch = 0;\n};\n"),
    ("packet-storage", "src/net/x.hpp",
     "class Tap : public Node {\n public:\n  void f();\n\n private:\n"
     "  net::Packet last_{};\n};\n"),
    ("packet-storage", "src/stats/x.cpp",
     "std::deque<net::Packet> pending;\n"),
    ("packet-storage", "src/obs/x.hpp",
     "struct A { Packet pkt; int port; };\n"),
    (None, "src/transport/tcp_sender.cpp",
     "void TcpSender::sendSegment(std::uint64_t seq) {\n"
     "  net::Packet pkt;\n  pkt.seq = seq;\n  send(pkt);\n}\n"),
    (None, "src/net/x.hpp",
     "class Link {\n  void send(const Packet& pkt) {\n    Packet copy = pkt;"
     "\n  }\n  const Packet* last_;\n};\n"),
    (None, "src/net/x.hpp",
     "template <class T>\nvoid relay(T& to) {\n  Packet pkt;\n}\n"),
    (None, "src/net/x.hpp",
     "using Hook = util::InlineFunction<void(const Packet&)>;\n"
     "std::vector<Hook> hooks_;\nstd::vector<PacketType> kinds_;\n"),
    (None, "src/net/x.hpp",
     "struct Probe {\n  Packet last;  // tlbsim-lint: allow(packet-storage)\n"
     "};\n"),
    (None, "src/net/packet_store.hpp",
     "struct Slot {\n  Packet pkt;\n};\nstd::vector<Slot> slots_;\n"),
    (None, "tests/net/x.cpp", "struct Arrival {\n  Packet pkt;\n};\n"),
    # config-is-data: a config holds no pointer to what a run writes to.
    ("config-is-data", "src/harness/x.hpp",
     "struct ExperimentConfig {\n  int seed = 1;\n"
     "  app::QueryProbe* queries = nullptr;\n};\n"),
    ("config-is-data", "src/fault/x.hpp",
     "class Monitor {\n public:\n  struct Config {\n"
     "    const char *label;\n  };\n};\n"),
    (None, "src/harness/x.hpp",
     "struct Sinks {\n  obs::MetricsRegistry* metrics = nullptr;\n};\n"),
    (None, "src/net/x.hpp",
     "struct LinkConfig {\n  int n = 0;\n  const int* first() const {\n"
     "    const int* p = &n;\n    return p;\n  }\n"
     "  std::vector<Foo*> all;\n  static constexpr const char* kName = "
     "\"x\";\n};\n"),
    (None, "src/obs/x.hpp",
     "struct ProbeConfig {\n"
     "  Probe* probe;  // tlbsim-lint: allow(config-is-data)\n};\n"),
    (None, "tests/x.cpp",
     "struct RigConfig {\n  Probe* probe = nullptr;\n};\n"),
]


# installobs-wiring reads several files at once: each entry is
# (rule-or-None, {relative path: text}).
WIRING_SELF_TEST_CASES = [
    ("installobs-wiring",
     {"src/foo/x.hpp": "class Foo {\n  void installTrace(Trace& t);\n};\n",
      "src/harness/x.cpp": "Foo foo;\n"}),
    (None,
     {"src/foo/x.hpp": "class Foo {\n  void installTrace(Trace& t);\n};\n",
      "src/harness/x.cpp": "Foo foo;\nfoo.installTrace(trace);\n"}),
    ("installobs-wiring",
     {"src/foo/x.hpp":
      "class Bar {\n  void addCountersTo(Registry& m) const;\n};\n",
      "tools/x.cpp": "Bar* bar = make();\nbar->installObs(&m);\n"}),
    (None,
     {"src/foo/x.hpp":
      "class Bar {\n  void addCountersTo(Registry& m) const;\n};\n",
      "tools/x.cpp": "Bar* bar = make();\nbar->addCountersTo(m);\n"}),
    # A call outside the harness and the CLI does not count.
    ("installobs-wiring",
     {"src/foo/x.hpp": "class Baz {\n  void installObs(Registry* m);\n};\n",
      "src/app/x.cpp": "Baz baz;\nbaz.installObs(m);\n"}),
]


def self_test() -> int:
    failures = 0
    for i, (rule, sources) in enumerate(WIRING_SELF_TEST_CASES):
        findings: list = []
        check_hook_wiring(sources, findings, {})
        fired = sorted({f.rule for f in findings})
        want = [rule] if rule else []
        if fired != want:
            failures += 1
            print(f"wiring self-test case {i}: expected {want or 'clean'}, "
                  f"got {fired or 'clean'} for {sorted(sources)}",
                  file=sys.stderr)
    for i, (rule, rel, snippet) in enumerate(SELF_TEST_CASES):
        findings: list = []
        stats = {"files": 0, "schedule_sites": 0}
        check_file(pathlib.Path(rel), pathlib.PurePosixPath(rel),
                   snippet, findings, stats)
        fired = sorted({f.rule for f in findings})
        want = [rule] if rule else []
        if fired != want:
            failures += 1
            print(f"self-test case {i} ({rel}): expected {want or 'clean'}, "
                  f"got {fired or 'clean'} for:\n  {snippet.strip()}",
                  file=sys.stderr)
    if failures:
        print(f"tlbsim-lint --self-test: {failures} case(s) FAILED",
              file=sys.stderr)
        return 1
    print(f"tlbsim-lint --self-test: "
          f"{len(SELF_TEST_CASES) + len(WIRING_SELF_TEST_CASES)} cases ok",
          file=sys.stderr)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress the summary line")
    parser.add_argument("--self-test", action="store_true",
                        help="run the rule snippets test suite and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = pathlib.Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"tlbsim-lint: no src/ under {root}", file=sys.stderr)
        return 2

    findings: list = []
    stats = {"files": 0, "schedule_sites": 0}
    for path in iter_sources(root):
        rel = path.relative_to(root)
        stats["files"] += 1
        check_file(path, rel, path.read_text(errors="replace"), findings,
                   stats)
    check_hook_wiring(hook_sources(root), findings, stats)

    for f in findings:
        print(f)
    if not args.quiet:
        print(f"tlbsim-lint: {stats['files']} files, "
              f"{stats['schedule_sites']} schedule/every sites audited, "
              f"{stats['hook_classes']} obs hook classes, "
              f"{len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
