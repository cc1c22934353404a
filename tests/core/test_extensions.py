"""Tests for the Velocity refresh extension."""

import datetime

import pytest

from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.core.wrangler import Wrangler
from repro.datagen.products import TARGET_SCHEMA
from repro.errors import PlanningError
from repro.sources.memory import MemorySource, VolatileSource

TODAY = datetime.date(2016, 3, 15)


class TestVelocityRefresh:
    def test_refresh_reacquires_only_one_source(self):
        ticks = {"count": 0}

        def producer(index):
            ticks["count"] += 1
            return [
                {"product": f"Widget {i}", "price": f"${100 + index}.00",
                 "brand": "Acme", "category": "widget",
                 "updated": "2016-03-15"}
                for i in range(8)
            ]

        user = UserContext.completeness_first("u", TARGET_SCHEMA)
        wrangler = Wrangler(user, DataContext("p"), today=TODAY)
        wrangler.add_source(VolatileSource("ticker", producer, cost_per_access=1.0))
        wrangler.add_source(
            MemorySource("static", [
                {"product": f"Widget {i}", "price": "$50.00",
                 "brand": "Acme", "category": "widget",
                 "updated": "2016-03-15"}
                for i in range(8)
            ])
        )
        wrangler.run()
        acquire_static = wrangler.flow.runs("acquire:static")
        wrangler.refresh_source("ticker")
        wrangler.run()
        assert wrangler.flow.runs("acquire:static") == acquire_static
        assert wrangler.flow.runs("acquire:ticker") == 2

    def test_refresh_unknown_source(self):
        user = UserContext.completeness_first("u", TARGET_SCHEMA)
        wrangler = Wrangler(user, DataContext("p"))
        wrangler.add_source(MemorySource("s", [{"product": "x", "price": "$1"}]))
        wrangler.run()
        with pytest.raises(PlanningError):
            wrangler.refresh_source("ghost")
