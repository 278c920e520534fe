"""Validation reports with witnesses.

Every validator returns a ValidationReport: a list of named axiom-group
checks, each carrying the basis tuples where the axiom fails together
with the residual value at that tuple.  An empty witness list in every
group means the structure is valid.

The four structure validators start from the passing report of their
checks (``ValidationReport.of``) and fill in witnesses only when the
integer Jacobiator kernel (``lie.lie_table_holds``) finds that a law fails
(``lie.decided``).
"""

from __future__ import annotations


class Record:
    """A plain record of the fields named by ``__slots__``: equal to a record
    of the same class with equal fields, printed as Name(field=value, ...),
    and unhashable."""

    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self.__slots__
        return [getattr(self, n) for n in names] == [getattr(other, n) for n in names]

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Witness(Record):
    __slots__ = ("where", "residual")

    def __init__(self, where: tuple, residual):
        self.where = where
        self.residual = residual

    def describe(self) -> str:
        return f"at {self.where}: residual {self.residual}"


class Check(Record):
    __slots__ = ("name", "witnesses")

    def __init__(self, name: str, witnesses: list[Witness] | None = None):
        self.name = name
        self.witnesses = [] if witnesses is None else witnesses

    @property
    def ok(self) -> bool:
        return not self.witnesses

    def add(self, where, residual):
        self.witnesses.append(Witness(tuple(where), residual))


class ValidationReport(Record):
    __slots__ = ("subject", "checks")

    def __init__(self, subject: str, checks: list[Check] | None = None):
        self.subject = subject
        self.checks = [] if checks is None else checks

    @classmethod
    def of(cls, subject: str, names) -> "ValidationReport":
        """The report on subject with the named checks and no witnesses."""
        return cls(subject, [Check(name) for name in names])

    def new_check(self, name: str) -> Check:
        check = Check(name)
        self.checks.append(check)
        return check

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failed_checks(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def summary(self) -> str:
        total = len(self.checks)
        passed = sum(1 for c in self.checks if c.ok)
        verdict = "VALID" if self.ok else "INVALID"
        return f"{self.subject}: {verdict} ({passed}/{total} axiom groups)"

    def lines(self, max_witnesses: int = 5) -> list[str]:
        out = [self.summary()]
        for check in self.checks:
            if check.ok:
                out.append(f"  [ok]   {check.name}")
            else:
                out.append(f"  [FAIL] {check.name} ({len(check.witnesses)} witnesses)")
                for w in check.witnesses[:max_witnesses]:
                    out.append(f"         {w.describe()}")
                if len(check.witnesses) > max_witnesses:
                    out.append(f"         ... {len(check.witnesses) - max_witnesses} more")
        return out

    def to_json(self) -> dict:
        from .scalars import format_rational

        def fmt(value):
            if isinstance(value, list):
                return [fmt(v) for v in value]
            try:
                return format_rational(value)
            except Exception:
                return repr(value)

        return {
            "subject": self.subject,
            "valid": self.ok,
            "checks": [
                {
                    "name": c.name,
                    "ok": c.ok,
                    "witnesses": [
                        {"where": list(w.where), "residual": fmt(w.residual)}
                        for w in c.witnesses
                    ],
                }
                for c in self.checks
            ],
        }

