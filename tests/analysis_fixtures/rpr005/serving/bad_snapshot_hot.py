"""RPR005 bad (serving segment): Snapshot built on per-request paths."""


class Engine:
    def __init__(self, metrics):
        self.metrics = metrics

    def submit(self, row):
        snap = self.metrics.snapshot()  # finding: snapshot per request
        return row, snap

    def observe(self, rid, outcome):
        return Snapshot(rid, outcome)  # finding: Snapshot ctor per request

    def offer_batch(self, scores, costs):
        return Snapshot(scores, costs)  # finding: Snapshot ctor per block


class Snapshot:
    def __init__(self, rid, outcome):
        self.rid = rid
        self.outcome = outcome
