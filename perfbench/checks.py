"""Known-answer checks on an o2batch JSONL report.

The answers come from the corpus generator's plan (corpus.py), never from
O2 itself:

  1. A race is reported on racy object K's field f0 whenever at least two
     origins write it without a lock and one of them is a thread (event
     handlers are serialized against each other, so two handlers alone do
     not race).
  2. No race is reported on a field that only main writes before the first
     spawn: Data.f1 and every PadData field.
  3. A module with a single origin is clean.

A job also fails when its status is anything but clean or races.
"""

import json

OK_STATUSES = ("clean", "races")
MAIN_ONLY_FIELDS = ("f1", "p0", "p1", "plink")


def racy_location(k):
    """How the report names field f0 of racy object K (allocated in main)."""
    return f"Data@main:d{k} = new Data.f0"


def expected_racy_objects(plan):
    writers = {}
    for o in plan["origins"]:
        for k in o["unprotected"]:
            writers.setdefault(k, []).append(o["kind"])
    return sorted(k for k, kinds in writers.items()
                  if len(kinds) >= 2 and "thread" in kinds)


def check_job(record, plan):
    """Reasons why one job record contradicts its plan ([] if none)."""
    status = record.get("status")
    if status not in OK_STATUSES:
        return [f"status {status}"]
    locations = {r["location"] for r in record.get("races", [])}
    reasons = []
    for k in expected_racy_objects(plan):
        if racy_location(k) not in locations:
            reasons.append(f"missing race on {racy_location(k)}")
    for loc in sorted(locations):
        if loc.rsplit(".", 1)[-1] in MAIN_ONLY_FIELDS:
            reasons.append(f"race on main-only field {loc}")
    if len(plan["origins"]) == 1 and (status != "clean" or locations):
        reasons.append("single-origin module is not clean")
    return reasons


def check_report(text, plans):
    """Returns (jobs in the report, {module: [reasons]} for failed jobs)."""
    failures = {}
    seen = set()
    jobs = 0
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("aggregate"):
            continue
        jobs += 1
        name = record.get("module")
        if name in seen or name not in plans:
            failures[name] = ["unexpected or duplicate job record"]
            continue
        seen.add(name)
        reasons = check_job(record, plans[name])
        if reasons:
            failures[name] = reasons
    for name in sorted(set(plans) - seen):
        failures[name] = ["no job record"]
    return max(jobs, len(plans)), failures
