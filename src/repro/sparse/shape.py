"""A ratings matrix described by its size alone.

A :class:`RatingsShape` is an ``m × n`` matrix holding ``nnz`` ratings at
uniform density.  It answers the questions the ALS graph builders ask of
a :class:`~repro.sparse.csr.CSRMatrix` — shape, nnz of a row range, nnz
and footprint of a row/column slice (hence of a grid block), transpose —
so the paper-scale iteration models run the solvers' own builders on
Hugewiki-sized data without materialising it.  Slice nnz is fractional.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RatingsShape"]


@dataclass(frozen=True)
class RatingsShape:
    """``shape = (m, n)`` with ``nnz`` ratings at uniform density."""

    shape: tuple[int, int]
    nnz: float

    @classmethod
    def of(cls, dataset) -> "RatingsShape":
        """The shape of a :class:`~repro.datasets.registry.DatasetSpec`."""
        return cls((dataset.m, dataset.n), dataset.nz)

    def nnz_in_rows(self, start: int, stop: int) -> float:
        """Ratings in rows ``[start, stop)``."""
        return self.nnz * (stop - start) / self.shape[0]

    def row_slice(self, start: int, stop: int) -> "RatingsShape":
        """Rows ``[start, stop)``."""
        return RatingsShape((stop - start, self.shape[1]), self.nnz_in_rows(start, stop))

    def col_slice(self, start: int, stop: int) -> "RatingsShape":
        """Columns ``[start, stop)``."""
        return RatingsShape((self.shape[0], stop - start), self.nnz * (stop - start) / self.shape[1])

    def memory_floats(self) -> float:
        """CSR footprint in floats, ``2*Nz + m + 1``, as for a real matrix."""
        return 2 * self.nnz + self.shape[0] + 1

    def transpose(self) -> "RatingsShape":
        """``Rᵀ``, the matrix the update-Θ pass solves over."""
        return RatingsShape((self.shape[1], self.shape[0]), self.nnz)
