// Scratch reuse next to a host time loop: `s` is written twice (k1, k3) and
// read in between, so without the loop the DDG gives k3 a redundant instance
// of `s` and {k1..k4} may fuse. With the loop every array keeps its base
// name, so the `s` anti/output edges are hard and the search must see them.
__global__ void k1(const double* __restrict__ u, double* s, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { s[k][j][i] = 2.0 * u[k][j][i]; } }
}
__global__ void k2(const double* __restrict__ s, double* a, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { a[k][j][i] = s[k][j][i] + 1.0; } }
}
__global__ void k3(const double* __restrict__ u, double* s, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { s[k][j][i] = u[k][j][i] - 3.0; } }
}
__global__ void k4(const double* __restrict__ s, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { b[k][j][i] = s[k][j][i] / 2.0; } }
}
__global__ void step(const double* __restrict__ p, double* q, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { q[k][j][i] = 0.99 * p[k][j][i]; } }
}
void host() {
  int nx = 64; int ny = 32; int nz = 8;
  double* u = cudaAlloc3D(nz, ny, nx);
  double* s = cudaAlloc3D(nz, ny, nx);
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  double* p = cudaAlloc3D(nz, ny, nx);
  double* q = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(u);
  cudaMemcpyH2D(p);
  k1<<<dim3(4, 4), dim3(16, 8)>>>(u, s, nx, ny, nz);
  k2<<<dim3(4, 4), dim3(16, 8)>>>(s, a, nx, ny, nz);
  k3<<<dim3(4, 4), dim3(16, 8)>>>(u, s, nx, ny, nz);
  k4<<<dim3(4, 4), dim3(16, 8)>>>(s, b, nx, ny, nz);
  for (int t = 0; t < 4; t++) {
    step<<<dim3(4, 4), dim3(16, 8)>>>(p, q, nx, ny, nz);
    step<<<dim3(4, 4), dim3(16, 8)>>>(q, p, nx, ny, nz);
  }
  cudaMemcpyD2H(a);
  cudaMemcpyD2H(b);
  cudaMemcpyD2H(p);
}
