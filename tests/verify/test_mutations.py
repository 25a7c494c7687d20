"""Tests for the mutation self-check: the net must have no holes."""

from repro.verify import MUTATIONS, ORACLES, run_selfcheck


class TestCatalogue:
    def test_issue_faults_catalogued(self):
        # the three faults the issue names, the two this codebase nearly
        # shipped, the columnar block-boundary fault, the two
        # compiled-kernel faults the kernel-backend oracle must catch,
        # the broadcast-collapse fault the batched surrogate invites,
        # plus the three cache-zoo faults (seed fold, routing boundary,
        # collision exponent), an LRU that replays FIFO in every engine
        # (only the independent lru-stack witness sees it), an
        # off-by-one in the stack-distance test behind batched miss labels
        # and a hierarchy kernel that forgets back-invalidation, and a
        # set-associative class count that keeps stride 1
        assert set(MUTATIONS) == {
            "fold-modulus-off-by-one",
            "dropped-bank-busy-stall",
            "wrong-mersenne-modulus",
            "congruence-lost-solutions",
            "phase-collapsed-footprint",
            "columnar-block-off-by-one",
            "kernel-write-allocate-dropped",
            "kernel-belady-sentinel-pinned",
            "batched-broadcast-collapse",
            "hashed-seed-fold-dropped",
            "bicameral-boundary-misrouted",
            "collision-exponent-off-by-one",
            "lru-refresh-dropped",
            "stack-capacity-off-by-one",
            "two-level-back-invalidation-dropped",
            "assoc-class-count-shifted",
        }

    def test_expected_oracles_exist(self):
        for mutation in MUTATIONS.values():
            assert mutation.expected_oracles
            for name in mutation.expected_oracles:
                assert name in ORACLES, (mutation.name, name)


class TestSelfCheck:
    def test_every_mutation_caught_by_an_expected_oracle(self):
        outcomes = run_selfcheck(seed=0, mode="quick")
        assert len(outcomes) == len(MUTATIONS)
        for outcome in outcomes:
            assert outcome.caught, f"{outcome.mutation} slipped the net"
            assert set(outcome.expected_oracles) & set(outcome.caught_by), (
                f"{outcome.mutation} caught only by "
                f"{outcome.caught_by}, expected one of "
                f"{outcome.expected_oracles}")

    def test_patches_are_restored(self):
        from repro import kernels
        from repro.analytical import batched, congruence
        from repro.cache.prime import PrimeMappedCache

        originals = (
            PrimeMappedCache._map_sets_batch,
            PrimeMappedCache.lines_touched_by_stride,
            kernels.op_timing,
            congruence.solve_linear_congruence,
            batched._assoc_class_axes,
        )
        run_selfcheck(seed=0, mode="quick",
                      mutations=["fold-modulus-off-by-one",
                                 "dropped-bank-busy-stall",
                                 "congruence-lost-solutions",
                                 "assoc-class-count-shifted"])
        assert originals == (
            PrimeMappedCache._map_sets_batch,
            PrimeMappedCache.lines_touched_by_stride,
            kernels.op_timing,
            congruence.solve_linear_congruence,
            batched._assoc_class_axes,
        )

    def test_shared_lru_fault_needs_the_independent_witness(self):
        # the scalar and compiled engines both turn FIFO, so the
        # differential oracles agree with each other; only Mattson stack
        # distances disagree with both
        [outcome] = run_selfcheck(seed=0, mode="quick",
                                  mutations=["lru-refresh-dropped"])
        assert outcome.caught_by == ["lru-stack"]

    def test_dropped_back_invalidation_caught_by_both_witnesses(self):
        # the differential kernel-backend sweep sees the compiled path
        # leave the scalar one; cache-zoo's inclusion and direct-L2
        # checks see the hierarchy's own invariants break
        [outcome] = run_selfcheck(
            seed=0, mode="quick",
            mutations=["two-level-back-invalidation-dropped"])
        assert set(outcome.caught_by) == {"cache-zoo", "kernel-backend"}

    def test_single_mutation_selection(self):
        [outcome] = run_selfcheck(seed=0, mode="quick",
                                  mutations=["congruence-lost-solutions"])
        assert outcome.mutation == "congruence-lost-solutions"
        assert "congruence" in outcome.caught_by

    def test_restored_world_is_clean_again(self):
        # a fault active during the self-check must not leak into a
        # subsequent ordinary sweep
        run_selfcheck(seed=0, mode="quick",
                      mutations=["dropped-bank-busy-stall"])
        from repro.verify import DifferentialRunner

        outcome = DifferentialRunner(
            [ORACLES["machine-timing"]], seed=0).run("quick")[0]
        assert outcome.ok, [m.describe() for m in outcome.mismatches]
