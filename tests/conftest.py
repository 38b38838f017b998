import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole test run (driver contract)."""
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()


@pytest.fixture
def forced_closure_tiers(monkeypatch):
    """Factory of an iterator over the closure tiers above the driver
    tier: its one step patches stages.clustering's threshold so that
    closure_labels picks bucketed LP ("scale").  The patch lasts until
    the test ends."""
    from kawa_ray.stages import clustering

    def tiers():
        monkeypatch.setattr(clustering, "_DRIVER_EDGE_THRESHOLD", 0)
        yield "scale"

    return tiers
