"""Seeded OIR corpus generator for the O2 benchmark.

The benchmark must feed the same bytes to a parent commit and to its
change, so the corpus is written here, in the benchmark's own code, and
never by the program under test. The module shapes follow the repository's
synthetic workload generator (src/workload/Generator.cpp): shared Data
objects split into racy / locked / read-only, per-origin leaf work behind a
call chain, origin-local allocation wrappers, a context amplifier, nested
spawns and sequential padding. The 30 paper profiles below carry the
origin counts of the paper's Table 5.

Every module also gets a plan (the origins and their unprotected writes),
from which checks.py derives the known answers. No verdict comes from O2.
"""

import hashlib
import os

MASK64 = (1 << 64) - 1


class Rng:
    """splitmix64: fixed across Python versions, unlike the random module."""

    def __init__(self, seed):
        self.state = seed & MASK64

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n


def mix(*parts):
    """A 64-bit seed derived from the run seed and a module's identity."""
    h = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(h[:8], "little")


class Profile:
    def __init__(self, name, threads, events, depth, padding, racy=1,
                 locked=2, nested=0, amp_layers=4, amp_fanout=4):
        self.name = name
        self.threads = threads
        self.events = events
        self.depth = depth
        self.racy = racy
        self.locked = locked
        self.readonly = 2
        self.locks = 2
        self.protected_writes = 2
        self.unprotected_writes = 1
        self.reads = 3
        self.accesses_per_region = 3
        self.local_patterns = (1, 1, 1)
        self.amp_layers = amp_layers
        self.amp_fanout = amp_fanout
        self.amp_stmts = 12
        self.nested = nested
        self.padding = padding
        self.pad_stmts = 30

    def scaled(self, factor):
        """Origins and padding multiplied by factor (paper-cold's knob)."""
        return Profile(self.name, self.threads * factor,
                       self.events * factor, self.depth, self.padding * factor,
                       self.racy, self.locked, self.nested, self.amp_layers,
                       self.amp_fanout)


# name, threads, events, call depth, padding, racy, locked, nested,
# amplifier layers, amplifier fan-out -- as in the repository's
# benchmarkProfiles().
PAPER_PROFILES = [
    Profile("avrora", 4, 0, 3, 60, amp_fanout=10),
    Profile("batik", 4, 0, 4, 40, amp_fanout=30),
    Profile("eclipse", 4, 0, 3, 30, amp_fanout=6),
    Profile("h2", 3, 0, 5, 200, racy=2, locked=3, amp_fanout=24),
    Profile("jython", 4, 0, 5, 160, racy=2, amp_fanout=10),
    Profile("luindex", 3, 0, 4, 60, amp_fanout=12),
    Profile("lusearch", 3, 0, 3, 30, amp_fanout=30),
    Profile("pmd", 3, 0, 3, 30, amp_layers=3, amp_fanout=6),
    Profile("sunflow", 9, 0, 3, 40, amp_fanout=6),
    Profile("tomcat", 4, 2, 4, 50, amp_fanout=30),
    Profile("tradebeans", 3, 0, 3, 30, amp_layers=3, amp_fanout=6),
    Profile("tradesoap", 3, 0, 3, 35, amp_layers=3, amp_fanout=6),
    Profile("xalan", 3, 0, 4, 110, amp_fanout=26),
    Profile("connectbot", 3, 8, 3, 25, amp_fanout=28),
    Profile("sipdroid", 4, 11, 3, 35, amp_fanout=28),
    Profile("k9mail", 5, 18, 3, 45, amp_fanout=28),
    Profile("tasks", 2, 5, 3, 30, amp_fanout=30),
    Profile("fbreader", 4, 11, 3, 40, amp_fanout=30),
    Profile("vlc", 2, 2, 4, 35, amp_fanout=28),
    Profile("firefoxfocus", 2, 6, 3, 30, amp_fanout=32),
    Profile("telegram", 20, 114, 3, 90, amp_fanout=32),
    Profile("zoom", 5, 10, 3, 110, amp_fanout=32),
    Profile("chrome", 8, 26, 3, 45, amp_fanout=32),
    Profile("hbase", 12, 4, 5, 220, racy=3, locked=4, nested=2,
            amp_fanout=30),
    Profile("hdfs", 9, 3, 5, 180, racy=3, locked=4, nested=2, amp_fanout=12),
    Profile("yarn", 10, 4, 5, 260, racy=3, locked=4, nested=2,
            amp_fanout=10),
    Profile("zookeeper", 30, 10, 4, 120, racy=3, locked=4, nested=2,
            amp_fanout=10),
    Profile("memcached", 8, 4, 3, 60, racy=2, locked=3, amp_layers=3,
            amp_fanout=8),
    Profile("redis", 10, 5, 4, 140, racy=2, locked=3, nested=2,
            amp_fanout=24),
    Profile("sqlite3", 3, 0, 5, 300, racy=1, locked=4, amp_fanout=44),
]


def dense_profile(name, threads, events):
    """race-dense: many origins, heavy leaf work, no context amplifier."""
    p = Profile(name, threads, events, 3, 10, racy=2, locked=3,
                amp_layers=0)
    p.locks = 3
    p.protected_writes = 10
    p.unprotected_writes = 10
    p.reads = 10
    return p


class ModuleWriter:
    """Renders one module as OIR text and records its plan."""

    def __init__(self, p, seed, edited=False):
        self.p = p
        self.rng = Rng(seed)
        self.edited = edited
        self.out = []
        self.shared = p.racy + p.locked + p.readonly
        self.nlocks = max(p.locks, 1)
        # The plan: (origin class, "thread" or "handler", indices of the
        # racy objects whose f0 it writes without a lock).
        self.origins = []
        # What main spawns: (class, is handler, index).
        self.spawned = []

    def pick(self, lo, count):
        return lo + self.rng.below(count)

    def func(self, header, vars_, stmts, indent=""):
        self.out.append(f"{indent}{header} {{")
        for name, ty in vars_:
            self.out.append(f"{indent}  var {name}: {ty};")
        for s in stmts:
            self.out.append(f"{indent}  {s};")
        self.out.append(f"{indent}}}")

    def build(self):
        p = self.p
        for i in range(self.shared):
            self.out.append(f"global gData{i}: Data;")
        for i in range(self.nlocks):
            self.out.append(f"global gLock{i}: Lock;")
        self.out.append("class Data { field f0: int; field f1: int; "
                        "field link: Data; }")
        self.out.append("class Lock { }")
        self.out.append("class PadData { field p0: int; field p1: int; "
                        "field plink: PadData; }")
        self.alloc_wrappers()
        self.amplifier()
        for i in range(p.threads):
            self.origin_class(f"Worker{i}", "run", False, i)
        for i in range(p.events):
            self.origin_class(f"Handler{i}", "handleEvent", True, i)
        self.nested()
        self.padding()
        if self.edited:
            self.func("func benchEdit()", [("d", "PadData"), ("t", "int")],
                      ["d = new PadData", "d.p0 = t"])
        self.main()
        return "\n".join(self.out) + "\n"

    def alloc_wrappers(self):
        chains = [["makeLocalD1"], ["makeLocalD2", "makeLocalD2_inner"],
                  ["makeLocalD3", "makeLocalD3_mid", "makeLocalD3_inner"]]
        for names in chains:
            for i, n in enumerate(names):
                first = (f"d = {names[i + 1]}()" if i + 1 < len(names)
                         else "d = new Data")
                self.func(f"func {n}(): Data", [("d", "Data")],
                          [first, "return d"])

    def amplifier(self):
        p = self.p
        fan = max(p.amp_fanout, 1)
        for layer in range(p.amp_layers):
            nxt = f"Util{layer + 1}"
            vars_ = [("t", "int"), ("x", "Data")]
            stmts = ["x = new Data"]
            for s in range(p.amp_stmts):
                stmts.append("x.f0 = t" if s % 2 == 0 else "t = x.f1")
            if layer + 1 < p.amp_layers:
                for f in range(fan):
                    vars_.append((f"n{f}", nxt))
                    stmts += [f"n{f} = new {nxt}", f"n{f}.m(d)"]
            else:
                stmts.append("t = d.f1")
            self.out.append(f"class Util{layer} {{")
            self.func("method m(d: Data)", vars_, stmts, "  ")
            self.out.append("}")

    def leaf(self, is_handler, thread_idx):
        """One origin's leaf work; returns (vars, stmts, racy writes)."""
        p = self.p
        vars_ = [("t", "int")]
        stmts = []
        unprotected = set()
        counter = [0]

        def fresh(ty):
            name = f"v{counter[0]}"
            counter[0] += 1
            vars_.append((name, ty))
            return name

        if p.amp_layers:
            ad = fresh("Data")
            vars_.append(("u", "Util0"))
            stmts += [f"{ad} = makeLocalD1()", "u = new Util0", f"u.m({ad})"]
        makers = ["makeLocalD1", "makeLocalD2", "makeLocalD3"]
        for depth, count in enumerate(p.local_patterns):
            for _ in range(count):
                ld = fresh("Data")
                stmts += [f"{ld} = {makers[depth]}()", f"{ld}.f0 = t",
                          f"t = {ld}.f1"]
        if not is_handler:
            att = fresh("Data")
            stmts += [f"{att} = this.att", f"{att}.f0 = t"]
            k = thread_idx % self.shared
            if k < p.racy:
                unprotected.add(k)
        for _ in range(p.protected_writes):
            if p.locked == 0:
                break
            k = self.pick(p.racy, p.locked)
            sd, lv = fresh("Data"), fresh("Lock")
            stmts += [f"{sd} = @gData{k}", f"{lv} = @gLock{k % self.nlocks}",
                      f"acquire {lv}"]
            for _ in range(max(p.accesses_per_region, 1)):
                stmts += [f"{sd}.f0 = t", f"t = {sd}.f1"]
            stmts.append(f"release {lv}")
        for _ in range(p.unprotected_writes):
            if p.racy == 0:
                break
            k = self.pick(0, p.racy)
            sd = fresh("Data")
            stmts += [f"{sd} = @gData{k}", f"{sd}.f0 = t"]
            unprotected.add(k)
        for _ in range(p.reads):
            if p.readonly == 0:
                break
            k = self.pick(p.racy + p.locked, p.readonly)
            sd = fresh("Data")
            stmts += [f"{sd} = @gData{k}", f"t = {sd}.f1"]
        return vars_, stmts, unprotected

    def origin_class(self, name, entry, is_handler, idx):
        p = self.p
        self.out.append(f"class {name} {{")
        self.out.append("  field att: Data;")
        self.out.append("  field lk: Lock;")
        if not is_handler:
            self.func("method init(a: Data, l: Lock)", [],
                      ["this.att = a", "this.lk = l"], "  ")
        chain = [entry] + [f"step{d}" for d in range(1, max(p.depth, 1))]
        for a, b in zip(chain, chain[1:]):
            self.func(f"method {a}()", [], [f"this.{b}()"], "  ")
        vars_, stmts, unprotected = self.leaf(is_handler, idx)
        self.func(f"method {chain[-1]}()", vars_, stmts, "  ")
        self.out.append("}")
        self.origins.append((name, "handler" if is_handler else "thread",
                             unprotected))
        self.spawned.append((name, is_handler, idx))

    def nested(self):
        p = self.p
        inner = None
        for d in reversed(range(p.nested)):
            name = f"Nest{d}"
            self.out.append(f"class {name} {{")
            if inner:
                self.func("method run()", [("child", inner)],
                          [f"child = new {inner}", "spawn child.run()"], "  ")
            elif p.racy > 0:
                self.func("method run()", [("sd", "Data"), ("t", "int")],
                          ["sd = @gData0", "sd.f0 = t"], "  ")
            else:
                self.func("method run()", [], [], "  ")
            self.out.append("}")
            self.origins.append((name, "thread",
                                 {0} if inner is None and p.racy else set()))
            inner = name
        self.nest_root = inner

    def padding(self):
        p = self.p
        ops = ["d.plink = e", "e = d.plink", "e.p0 = t", "t = e.p1", "d = e"]
        for i in range(p.padding):
            stmts = ["d = new PadData", "e = new PadData"]
            stmts += [ops[s % 5] for s in range(p.pad_stmts)]
            if i:
                stmts.append(f"pad{i - 1}()")
            self.func(f"func pad{i}()",
                      [("d", "PadData"), ("e", "PadData"), ("t", "int")],
                      stmts)

    def main(self):
        p = self.p
        vars_ = [("t", "int")]
        stmts = ["benchEdit()"] if self.edited else []
        for i in range(self.shared):
            vars_.append((f"d{i}", "Data"))
            stmts += [f"d{i} = new Data", f"d{i}.f0 = t", f"d{i}.f1 = t",
                      f"@gData{i} = d{i}"]
        for i in range(self.nlocks):
            vars_.append((f"l{i}", "Lock"))
            stmts += [f"l{i} = new Lock", f"@gLock{i} = l{i}"]
        if p.padding:
            stmts.append(f"pad{p.padding - 1}()")
        for n, (name, is_handler, idx) in enumerate(self.spawned):
            vars_.append((f"o{n}", name))
            if not is_handler:
                stmts += [f"o{n} = new {name}(d{idx % self.shared}, "
                          f"l{idx % self.nlocks})", f"spawn o{n}.run()"]
            else:
                stmts += [f"o{n} = new {name}", f"spawn o{n}.handleEvent()"]
        if self.nest_root:
            vars_.append(("nest", self.nest_root))
            stmts += [f"nest = new {self.nest_root}", "spawn nest.run()"]
        if p.racy > 0:
            vars_.append(("mainRead", "Data"))
            stmts += ["mainRead = @gData0", "t = mainRead.f1"]
        self.func("func main()", vars_, stmts)

    def plan(self):
        return {"racy": self.p.racy,
                "origins": [{"name": n, "kind": k,
                             "unprotected": sorted(u)}
                            for n, k, u in self.origins]}


def cost_proxy(p):
    """Rough analysis cost of a profile: context-amplified origins for PTA
    plus statement count for everything else."""
    origins = p.threads + p.events + p.nested
    stmts = p.padding * (p.pad_stmts + 6) + origins * 40
    return origins * p.amp_fanout * p.amp_layers / 100 + stmts / 1000


def edited_tenth(mods, seed):
    """Names of the tenth of mods that rerun-isolated edits.

    One module per stratum of modules of similar cost, drawn from the
    cheaper two thirds of the corpus, so that every seed pays about the
    same for its cache misses in time and in memory: one costly module
    alone would outweigh the other misses together.
    """
    n = len(mods) // 10
    ranked = sorted(mods, key=lambda m: (cost_proxy(m[1]), m[0]))
    ranked = ranked[:len(mods) * 2 // 3]
    rng = Rng(mix(seed, "edits"))
    size = len(ranked) // n
    return {ranked[i * size + rng.below(size)][0] for i in range(n)}


def workload_modules(workload, seed):
    """(module name, profile, edited) for every module of a workload.

    The draws are stratified so that every seed does the same amount of
    work: the seed picks each module's internal choices (which object each
    access touches) and, for rerun-isolated, which tenth is edited, but not
    which profiles or scales appear. That keeps the run-to-run spread of
    the timings small enough to gate on.
    """
    if workload in ("paper-cold", "rerun-isolated"):
        mods = [(f"{p.name}_x{f}", p.scaled(f), False)
                for p in PAPER_PROFILES for f in (1, 2, 4)]
        if workload == "rerun-isolated":
            edited = edited_tenth(mods, seed)
            mods = [(n, p, n in edited) for n, p, _ in mods]
        return mods
    if workload == "race-dense":
        mods = [(f"dense{i:02d}",
                 dense_profile(f"dense{i:02d}", 14 + 2 * (i % 5), i % 4),
                 False)
                for i in range(20)]
        mods.append(("dense_single", dense_profile("dense_single", 1, 0),
                     False))
        return mods
    if workload == "aux-all":
        mods = [(f"{p.name}_x1", p, False) for p in PAPER_PROFILES]
        single = Profile("single_origin", 1, 0, 3, 10, amp_fanout=4)
        mods.append(("single_origin", single, False))
        return mods
    raise ValueError(f"unknown workload '{workload}'")


def generate(workload, seed, out_dir, unedited=False):
    """Writes the corpus; returns (digest, {module: plan})."""
    os.makedirs(out_dir, exist_ok=True)
    digest = hashlib.sha256()
    plans = {}
    for name, prof, edited in workload_modules(workload, seed):
        w = ModuleWriter(prof, mix(seed, name), edited and not unedited)
        text = w.build()
        with open(os.path.join(out_dir, name + ".oir"), "w") as f:
            f.write(text)
        digest.update(name.encode() + b"\0" + text.encode() + b"\0")
        plans[name] = w.plan()
    return digest.hexdigest(), plans
