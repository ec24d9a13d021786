"""Lightweight pass/fail reports for the verification suites."""


class Report:
    """Named collection of checks, each a (label, ok, detail) triple."""

    def __init__(self, name):
        self.name = name
        self.checks = []

    def add(self, label, ok, detail=""):
        self.checks.append((label, bool(ok), detail))
        return bool(ok)

    def expect_equal(self, label, got, want):
        """Record an equality check, keeping a short diff on failure."""
        if got == want:
            return self.add(label, True)
        return self.add(label, False, "got %s, want %s" % (_short(got), _short(want)))

    def expect_series(self, label, got, want, start=0):
        """Record whether two coefficient lists agree over their common length.

        got[k] and want[k] are the coefficients of t^(start + k).  On failure
        the detail names the first power of t whose coefficients differ.
        """
        diff = next((k for k, (a, b) in enumerate(zip(got, want), start) if a != b), None)
        return self.add(
            label, diff is None, "" if diff is None else "first difference at t^%d" % diff
        )

    def merge(self, other):
        for label, ok, detail in other.checks:
            self.checks.append(("%s: %s" % (other.name, label), ok, detail))

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.checks)

    @property
    def failures(self):
        return [line for line in self.lines() if line.startswith("FAIL")]

    def lines(self):
        out = []
        for label, ok, detail in self.checks:
            if ok:
                out.append("PASS %s" % label)
            elif detail:
                out.append("FAIL %s: %s" % (label, detail))
            else:
                out.append("FAIL %s" % label)
        return out

    def to_json(self):
        return {
            "name": self.name,
            "ok": self.ok,
            "checks": [
                {"label": label, "ok": ok, "detail": detail}
                for label, ok, detail in self.checks
            ],
        }

    def __repr__(self):
        state = "ok" if self.ok else "%d failing" % len(self.failures)
        return "<Report %s: %d checks, %s>" % (self.name, len(self.checks), state)


def _short(value, limit=160):
    text = repr(value)
    if len(text) > limit:
        text = text[: limit - 3] + "..."
    return text
