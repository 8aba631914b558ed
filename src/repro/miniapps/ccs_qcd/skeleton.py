"""Performance skeleton of CCS-QCD.

Cost signature per BiCGStab iteration (matching :mod:`physics` exactly):

* 2 Wilson-Dirac applications (the hopping kernel, 1344 FLOPs/site);
* 6 AXPY-class vector updates over the spinor field (192 B/site each);
* 4 global inner products -> 4 ``Allreduce(16 B)``;
* one halo exchange per Dirac application: the rank grid decomposes the
  t and z dimensions, each face moving ``surface x 24 complex`` spinors.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.errors import ConfigurationError
from repro.kernels.kernel import LoopKernel
from repro.miniapps import decomp
from repro.miniapps.base import Dataset, MiniApp
from repro.runtime.program import Allreduce, Compute, Irecv, Isend, WaitAll
from repro.units import FP64_BYTES

#: bytes of one spinor site (4 spin x 3 color x complex128)
SPINOR_BYTES = 4 * 3 * 2 * FP64_BYTES          # 192
#: bytes of one gauge link matrix (3x3 complex128)
LINK_BYTES = 9 * 2 * FP64_BYTES                 # 144
#: fp64 FLOPs per site of one Wilson-Dirac application: the textbook
#: 1320 for the 8-direction hopping term (SU(3) multiplies and spin
#: projection) plus 24 for the identity part
DIRAC_FLOPS_PER_SITE = 1344.0


class CcsQcd(MiniApp):
    name = "ccs-qcd"
    full_name = "CCS QCD Solver Benchmark"
    description = ("Lattice QCD: Wilson-fermion BiCGStab solver; "
                   "SU(3) matrix-spinor products dominate")
    character = "mixed"

    def make_datasets(self) -> list[Dataset]:
        return [
            Dataset("as-is", "class 1: 8x8x8x32 lattice, 50 solver iterations",
                    {"lattice": (32, 8, 8, 8), "iters": 50, "kappa": 0.124}),
            Dataset("large", "class 2: 32x32x32x64 lattice, 100 iterations",
                    {"lattice": (64, 32, 32, 32), "iters": 100, "kappa": 0.124}),
        ]

    def weak_dataset(self, factor: int) -> Dataset:
        """Grow the large lattice's t-extent by ``factor``."""
        if factor < 1:
            raise ValueError("factor must be >= 1")
        lt, lz, ly, lx = self.dataset("large")["lattice"]
        ds = Dataset(
            f"weak-x{factor}",
            f"{lx}^3 x {lt * factor} lattice (weak-scaled x{factor})",
            {"lattice": (lt * factor, lz, ly, lx),
             "iters": self.dataset("large")["iters"],
             "kappa": self.dataset("large")["kappa"]},
        )
        self.register_dataset(ds)
        return ds

    # ------------------------------------------------------------------
    def kernels(self, dataset: Dataset) -> dict[str, LoopKernel]:
        lt, lz, ly, lx = dataset["lattice"]
        # per-site working set of the hopping loop: the 8 neighbour spinors
        # plus 8 links for a streamed xy-plane
        plane_sites = lx * ly
        ws = plane_sites * 3 * (SPINOR_BYTES + LINK_BYTES)
        dirac = LoopKernel(
            name="qcd-dirac",
            flops=DIRAC_FLOPS_PER_SITE,
            fma_fraction=0.85,
            # streams: 8 links + ~2 effective spinor reads (neighbour reuse)
            # + 1 spinor write per site
            bytes_load=8 * LINK_BYTES + 2 * SPINOR_BYTES,
            bytes_store=SPINOR_BYTES,
            working_set_bytes=float(ws),
            streaming_fraction=0.55,
            vec_fraction=0.97,
            ilp=12.0,
            contiguous_fraction=0.9,
        )
        axpy = LoopKernel(
            name="qcd-axpy",
            flops=2.0 * 24,              # complex fma over 12 components
            fma_fraction=1.0,
            bytes_load=2 * SPINOR_BYTES,
            bytes_store=SPINOR_BYTES,
            streaming_fraction=1.0,
            vec_fraction=1.0,
            ilp=8.0,
        )
        dot = LoopKernel(
            name="qcd-dot",
            flops=2.0 * 24,
            fma_fraction=1.0,
            bytes_load=2 * SPINOR_BYTES,
            bytes_store=0.0,
            streaming_fraction=1.0,
            vec_fraction=1.0,
            ilp=4.0,                     # reduction chain
        )
        return {"qcd-dirac": dirac, "qcd-axpy": axpy, "qcd-dot": dot}

    # ------------------------------------------------------------------
    def rank_summary(self, dataset: Dataset, n_ranks: int, rank: int,
                     b) -> None:
        """Closed form of ``make_program`` (checked against replay)."""
        lt, lz, ly, lx = dataset["lattice"]
        iters = dataset["iters"]
        try:
            pt, pz = decomp.best_factor2(n_ranks, (lt, lz))
        except ConfigurationError:
            raise ConfigurationError(
                f"{self.name}: cannot decompose a {lt}x{lz} (t, z) plane "
                f"over {n_ranks} ranks"
            ) from None
        z_faces_bigger = (lt / pt) > (lz / pz)
        if z_faces_bigger:
            ct, cz = rank // pz, rank % pz
        else:
            ct, cz = rank % pt, rank // pt

        def rank_of(t: int, z: int) -> int:
            if z_faces_bigger:
                return (z % pz) + (t % pt) * pz
            return (t % pt) + (z % pz) * pt

        lt_loc = decomp.split_1d(lt, pt, ct)
        lz_loc = decomp.split_1d(lz, pz, cz)
        sites_local = lt_loc * lz_loc * ly * lx
        nbrs = []
        if pt > 1:
            nbrs.append((rank_of(ct - 1, cz), rank_of(ct + 1, cz),
                         lz_loc * ly * lx * SPINOR_BYTES))
        if pz > 1:
            nbrs.append((rank_of(ct, cz - 1), rank_of(ct, cz + 1),
                         lt_loc * ly * lx * SPINOR_BYTES))
        pack_sites = sum(n[2] for n in nbrs) / SPINOR_BYTES * 0.5
        boundary_fraction = min(
            0.9,
            (2.0 / lt_loc if pt > 1 else 0.0)
            + (2.0 / lz_loc if pz > 1 else 0.0),
        )
        interior = sites_local * (1.0 - boundary_fraction)
        boundary = sites_local - interior

        # serial bookkeeping + 2 pack passes per iteration (same group)
        serial_iters = 0.005 * sites_local * iters
        serial_regions = iters
        if pack_sites > 0:
            serial_iters += pack_sites * 2 * iters
            serial_regions += 2 * iters
        b.compute("qcd-axpy", serial_iters, regions=serial_regions,
                  serial=True)
        dirac_regions = 2 * iters * (2 if boundary > 0 else 1)
        b.compute("qcd-dirac", (interior + boundary) * 2 * iters,
                  regions=dirac_regions)
        b.compute("qcd-dot", sites_local * 4 * iters, regions=4 * iters)
        b.compute("qcd-axpy", 3 * sites_local * 2 * iters,
                  regions=2 * iters)
        b.collective("allreduce", 16, count=4 * iters)
        if nbrs:
            partners = []
            for lo, hi, nbytes in nbrs:
                partners += [(hi, nbytes), (lo, nbytes)]
            b.exchange(rank, partners, overlapped=True, count=2 * iters)

    # ------------------------------------------------------------------
    def make_program(self, dataset: Dataset,
                     n_ranks: int) -> Callable[[int, int], Iterator]:
        lt, lz, ly, lx = dataset["lattice"]
        iters = dataset["iters"]
        try:
            pt, pz = decomp.best_factor2(n_ranks, (lt, lz))
        except ConfigurationError:
            raise ConfigurationError(
                f"{self.name}: cannot decompose a {lt}x{lz} (t, z) plane "
                f"over {n_ranks} ranks"
            ) from None

        # Rank ordering: let the dimension with the *larger* halo faces
        # vary fastest, so consecutive ranks (which block allocation packs
        # onto a node) exchange the big faces through shared memory — the
        # topology mapping production lattice codes apply.
        z_faces_bigger = (lt / pt) > (lz / pz)

        def coords(rank: int) -> tuple[int, int]:
            if z_faces_bigger:
                return rank // pz, rank % pz
            return rank % pt, rank // pt

        def rank_of(ct: int, cz: int) -> int:
            if z_faces_bigger:
                return (cz % pz) + (ct % pt) * pz
            return (ct % pt) + (cz % pz) * pt

        def program(rank: int, size: int) -> Iterator:
            ct, cz = coords(rank)
            lt_loc = decomp.split_1d(lt, pt, ct)
            lz_loc = decomp.split_1d(lz, pz, cz)
            sites_local = lt_loc * lz_loc * ly * lx
            halo_t = lz_loc * ly * lx * SPINOR_BYTES   # one t-face
            halo_z = lt_loc * ly * lx * SPINOR_BYTES   # one z-face
            nbrs = []
            if pt > 1:
                nbrs.append((rank_of(ct - 1, cz), rank_of(ct + 1, cz), halo_t))
            if pz > 1:
                nbrs.append((rank_of(ct, cz - 1), rank_of(ct, cz + 1), halo_z))

            # boundary sites whose spinors are packed into send buffers by
            # the master thread (the code's serial region)
            pack_sites = sum(n[2] for n in nbrs) / SPINOR_BYTES * 0.5

            # fraction of the local volume on a communicated face
            boundary_fraction = min(
                0.9,
                (2.0 / lt_loc if pt > 1 else 0.0)
                + (2.0 / lz_loc if pz > 1 else 0.0),
            )
            interior = sites_local * (1.0 - boundary_fraction)
            boundary = sites_local - interior

            def halo_begin():
                """Post the exchange; the Dirac interior overlaps it."""
                if pack_sites > 0:
                    yield Compute("qcd-axpy", iters=pack_sites, serial=True)
                reqs = []
                for tag, (lo, hi, nbytes) in enumerate(nbrs):
                    reqs.append((yield Irecv(src=lo, tag=2 * tag)))
                    reqs.append((yield Irecv(src=hi, tag=2 * tag + 1)))
                    yield Isend(dst=hi, tag=2 * tag, size_bytes=nbytes)
                    yield Isend(dst=lo, tag=2 * tag + 1, size_bytes=nbytes)
                return reqs

            def dirac_overlapped():
                """Communication-overlapped Dirac application (the real
                benchmark computes the interior while halos fly)."""
                reqs = yield from halo_begin()
                yield Compute("qcd-dirac", iters=interior)
                if reqs:
                    yield WaitAll(reqs)
                if boundary > 0:
                    yield Compute("qcd-dirac", iters=boundary)

            for _ in range(iters):
                # serial solver bookkeeping (scalar recurrences, boundary
                # fix-ups) — ~0.5% of the local sites, master thread only
                yield Compute("qcd-axpy", iters=0.005 * sites_local,
                              serial=True)
                # p-vector Dirac application (comm-overlapped)
                yield from dirac_overlapped()
                yield Compute("qcd-dot", iters=sites_local)
                yield Allreduce(size_bytes=16)
                yield Compute("qcd-axpy", iters=3 * sites_local)
                # s-vector Dirac application (comm-overlapped)
                yield from dirac_overlapped()
                for _ in range(3):
                    yield Compute("qcd-dot", iters=sites_local)
                    yield Allreduce(size_bytes=16)
                yield Compute("qcd-axpy", iters=3 * sites_local)

        return program
