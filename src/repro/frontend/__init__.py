"""Front-end tier of the simulated deployment: clients, web servers, gateway."""

from .client import ClientRunStats, SimulatedClient
from .gateway import SimulatedDeployment, build_simulated_service
from .webserver import ClientBatchRequest, ClientBatchResponse, WebFrontEnd

__all__ = [
    "ClientRunStats",
    "SimulatedClient",
    "SimulatedDeployment",
    "build_simulated_service",
    "ClientBatchRequest",
    "ClientBatchResponse",
    "WebFrontEnd",
]
